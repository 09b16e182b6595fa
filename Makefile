# Build, test and benchmark entry points. `make bench` runs the full
# evaluation benchmark suite with -benchmem and records the result as
# BENCH_baseline.json (via cmd/benchjson) — the committed baseline the
# perf trajectory is measured against. BENCHTIME trades precision for
# wall time: CI smoke uses 1x, the committed baseline a longer run.
#
# `make bench-check` is the perf gate: a fresh bench run is diffed
# against the committed baseline and the make fails when any
# throughput-class (*/s) metric regresses by more than BENCHTHRESHOLD,
# or when an allocation metric (allocs/op, B/op) grows by more than
# BENCHALLOCTHRESHOLD — an amortised-alloc-free hot path whose baseline
# records 0 allocs/op must stay at 0.
# Both targets run every benchmark BENCHCOUNT times and benchjson keeps
# the best run per metric (max for */s throughputs, min for costs),
# printing the best-to-worst spread — one noisy run on a loaded box
# cannot fail the gate or poison the recorded baseline.
#
# `make saturation` sweeps the pod-scale Fig. 10 experiment across
# racks 8/16/32 and concatenates the per-rack CSVs into
# artifacts/saturation.csv — the saturation chart's data (see README
# "Plotting the saturation sweep"). `make saturation-row` is the same
# sweep one tier up: fig10row across pods 8/16/32 into
# artifacts/saturation-row.csv.
#
# `make cmp-parent` builds dredbox-report and dredbox-rack at REV
# (default HEAD) and at the working tree, runs a fixed list of report
# legs and rack tours with each build, and fails on any byte difference
# in a report, an artifact, a tour's output or an exit status
# (scripts/cmp-parent.sh). A change meant to leave placement untouched
# runs it against its parent commit.

GO ?= go
BENCHTIME ?= 500x
BENCHCOUNT ?= 3
BENCHTHRESHOLD ?= 0.25
BENCHALLOCTHRESHOLD ?= 0.5
BENCHPATTERN ?= .
# Filtered runs (BENCHPATTERN != .) default to a scratch file so they
# cannot silently truncate the committed baseline; set BENCHOUT
# explicitly (as CI's same-runner gate does) to override.
BENCHOUT ?= $(if $(filter .,$(BENCHPATTERN)),BENCH_baseline.json,BENCH_subset.json)
SATURATION_RACKS ?= 8 16 32
SATURATION_PODS ?= 8 16 32
# Racks per pod for the row sweep; keeps row sizes tractable while the
# pod count is the swept variable.
SATURATION_ROW_RACKS ?= 4
REV ?= HEAD

# The bench target pipes `go test` into benchjson; without pipefail a
# mid-suite benchmark failure would be masked by benchjson's exit 0.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build test vet loc bench bench-check profile saturation saturation-row cmp-parent

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# `make loc` prints the non-test Go line count (`wc -l`) of every
# package under internal/ and cmd/, then their total: the counting rule
# behind the line numbers ROADMAP.md and CHANGES.md quote.
loc:
	@total=0; \
	for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
		printf '%7d %s\n' $$n $$d; \
		total=$$((total + n)); \
	done; \
	printf '%7d total\n' $$total

bench:
	$(GO) test -run '^$$' -bench='$(BENCHPATTERN)' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $(BENCHOUT)

# Filtered gate runs (BENCHPATTERN != .) intentionally skip baseline
# benchmarks, so they pass -allow-missing; the full-suite gate keeps the
# missing-benchmark check armed so a deleted or renamed benchmark
# cannot silently shrink coverage.
bench-check:
	$(GO) test -run '^$$' -bench='$(BENCHPATTERN)' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -compare BENCH_baseline.json -threshold $(BENCHTHRESHOLD) \
			-alloc-threshold $(BENCHALLOCTHRESHOLD) \
			$(if $(filter .,$(BENCHPATTERN)),,-allow-missing)

# `make profile` captures CPU and heap pprof profiles of three runs.
# The row-tier group-commit engine: BenchmarkFig10Row on its 16-pod,
# 512-rack row (the fig10row experiment itself finishes in
# milliseconds, far under the profiler's sampling period; the benchmark
# drives the identical AdmitBatch/EvictBatch path thousands of times —
# its evictions run off the benchmark timer but inside the profile).
# And the facade above it: BenchmarkFacadeBurst/row/pods-16, 256-VM
# core.Row create+destroy bursts on the same row, which adds the
# per-VM software stack (Scale-up controller, hypervisor, hotplug).
# And the spill path: BenchmarkFacadeBurst/pod-spill/racks-16, 32-VM
# bursts on a 16-rack pod where 3 in 4 VMs spill cross-rack, so its
# teardown runs the cross-rack detach and its index refreshes. A burst
# there takes about a tenth of a row burst, so an iteration count in
# PROFILETIME gains a zero for it (5000x becomes 50000x) to collect
# about as many samples.
# Profiles and the instrumented test binary land in artifacts/; the top
# CPU frames of each print at the end. PROFILE.md holds the committed
# snapshot. For an end-to-end experiment profile, dredbox-report has
# the same knobs: see README "Profiling the group-commit engine".
PROFILEBENCH ?= Fig10Row/pods-16
PROFILETIME ?= 5000x
profile:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench='$(PROFILEBENCH)' -benchtime=$(PROFILETIME) \
		-cpuprofile artifacts/fig10row.cpu.pprof \
		-memprofile artifacts/fig10row.mem.pprof \
		-o artifacts/repro.test .
	$(GO) tool pprof -top -nodecount=15 artifacts/repro.test artifacts/fig10row.cpu.pprof
	$(GO) test -run '^$$' -bench='FacadeBurst/row/pods-16' -benchtime=$(PROFILETIME) \
		-cpuprofile artifacts/facade.cpu.pprof \
		-memprofile artifacts/facade.mem.pprof \
		-o artifacts/repro.test .
	$(GO) tool pprof -top -nodecount=15 artifacts/repro.test artifacts/facade.cpu.pprof
	$(GO) test -run '^$$' -bench='FacadeBurst/pod-spill/racks-16' -benchtime=$(subst x,0x,$(PROFILETIME)) \
		-cpuprofile artifacts/spill.cpu.pprof \
		-memprofile artifacts/spill.mem.pprof \
		-o artifacts/repro.test .
	$(GO) tool pprof -top -nodecount=15 artifacts/repro.test artifacts/spill.cpu.pprof

saturation:
	mkdir -p artifacts/saturation
	$(GO) build -o artifacts/dredbox-report ./cmd/dredbox-report
	for r in $(SATURATION_RACKS); do \
		artifacts/dredbox-report -racks $$r -only fig10pod \
			-artifacts artifacts/saturation/r$$r -o artifacts/saturation/r$$r.txt; \
	done
	set -- $(SATURATION_RACKS); \
		head -n 1 artifacts/saturation/r$$1/fig10pod.csv > artifacts/saturation.csv
	for r in $(SATURATION_RACKS); do \
		tail -n +2 artifacts/saturation/r$$r/fig10pod.csv >> artifacts/saturation.csv; \
	done
	@echo "wrote artifacts/saturation.csv"

saturation-row:
	mkdir -p artifacts/saturation-row
	$(GO) build -o artifacts/dredbox-report ./cmd/dredbox-report
	for p in $(SATURATION_PODS); do \
		artifacts/dredbox-report -pods $$p -racks $(SATURATION_ROW_RACKS) -only fig10row \
			-artifacts artifacts/saturation-row/p$$p -o artifacts/saturation-row/p$$p.txt; \
	done
	set -- $(SATURATION_PODS); \
		head -n 1 artifacts/saturation-row/p$$1/fig10row.csv > artifacts/saturation-row.csv
	for p in $(SATURATION_PODS); do \
		tail -n +2 artifacts/saturation-row/p$$p/fig10row.csv >> artifacts/saturation-row.csv; \
	done
	@echo "wrote artifacts/saturation-row.csv"

cmp-parent:
	bash scripts/cmp-parent.sh $(REV)
