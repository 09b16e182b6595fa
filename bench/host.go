package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostFacts records what a measurement depends on besides the code: the
// parallelism the engine's fan-out sees, the processor, the toolchain,
// the collector's pacing and the runtime's debug settings (run.sh turns
// transparent huge pages off for the heap; see README.md).
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
	GODEBUG    string `json:"godebug"`
}

func readHost() hostFacts {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GOGC:       gogc,
		GODEBUG:    os.Getenv("GODEBUG"),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// reports "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func (h hostFacts) String() string {
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d cpu=%q go=%s gogc=%s godebug=%q", h.GOMAXPROCS, h.NumCPU, h.CPU, h.Go, h.GOGC, h.GODEBUG)
}
