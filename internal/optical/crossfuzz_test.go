package optical

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Tiers a fuzzed circuit lives on.
const (
	fzRack = iota
	fzPod
	fzRow
)

// fzCircuit is the fuzz model's record of one live circuit: its tier
// and both endpoint racks.
type fzCircuit struct {
	tier                     int
	podA, rackA, podB, rackB int
}

// fzReader hands out the fuzz input one byte per drawn value.
type fzReader struct {
	data []byte
	i    int
}

// draw returns the next byte mod n, or false once the input is spent.
func (r *fzReader) draw(n int) (int, bool) {
	if r.i >= len(r.data) {
		return 0, false
	}
	r.i++
	return int(r.data[r.i-1]) % n, true
}

// coord draws an index over n children, one past either end included.
func (r *fzReader) coord(n int) (int, bool) {
	v, ok := r.draw(n + 2)
	return v - 1, ok
}

// The fuzzed row: 2 pods of 3 racks, each rack a 16-port switch with
// fzPorts-2 brick ports attached, and 2 uplinks per child at both
// tiers.
const (
	fzPods, fzRacks, fzUplinks = 2, 3, 2
	fzPorts                    = 10
)

// FuzzCrossFabric drives a 2-pod row through random rack-local, pod and
// row connects (indexes one past either end and unattached ports
// included) and disconnects. A disconnect hands a live, retired or
// foreign circuit to a rack fabric, a pod fabric or the row fabric; the
// foreign ones come from a wider row (a third pod, a fourth rack per
// pod, 32-port racks). The oracle: no call panics; a disconnect
// succeeds exactly when the target owns the live circuit; and after
// every call each child's free uplinks plus the live circuits it holds
// equal its uplink count, each tier's CrossCircuits and each rack's
// LiveCircuits match the model, and the foreign row is untouched. A
// final drain through the owners empties every fabric.
//
// Input layout: an opcode byte (mod 4: rack-local connect, pod connect,
// row connect, disconnect) and one byte per value it draws. The seed
// corpus lives in testdata/fuzz/FuzzCrossFabric: "foreign-circuits"
// hands every foreign circuit to every tier, "exhaust-and-range"
// runs both tiers out of uplinks and out of range, and "stale-reuse"
// tears circuits down and hands their retired handles back after the
// arena reuses them.
func FuzzCrossFabric(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		rf := testRow(t, fzPods, fzRacks, 16, fzPorts-2, fzUplinks)
		other := testRow(t, fzPods+1, fzRacks+1, 32, 24, 4)
		must := func(c *Circuit, _ sim.Duration, err error) *Circuit {
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		// The foreign circuits name a child, a rack or a switch port
		// beyond this row's, or only ports this row's racks do not hold.
		foreign := []*Circuit{
			must(other.Pod(0).Rack(0).Connect(portK(20), portK(21))),
			must(other.Pod(0).ConnectCross(3, portK(0), 0, portK(0))),
			must(other.Pod(1).ConnectCross(0, portK(17), 1, portK(18))),
			must(other.Pod(1).ConnectCross(1, portK(1), 2, portK(1))),
			must(other.ConnectCross(2, 0, portK(2), 0, 0, portK(2))),
			must(other.ConnectCross(0, 3, portK(3), 1, 3, portK(3))),
			must(other.ConnectCross(0, 0, portK(4), 1, 1, portK(4))),
			must(other.ConnectCross(1, 1, portK(19), 0, 2, portK(5))),
		}
		otherCross := [fzPods + 2]int{other.CrossCircuits(), other.Pod(0).CrossCircuits(), other.Pod(1).CrossCircuits(), other.Pod(2).CrossCircuits()}

		live := map[*Circuit]fzCircuit{}
		var order, retired []*Circuit // live circuits in connect order; torn-down handles
		check := func(call string) {
			t.Helper()
			var (
				podHeld [fzPods][fzRacks]int
				rowHeld [fzPods]int
				ends    [fzPods][fzRacks]int
				cross   [fzPods + 1]int
			)
			for _, c := range live {
				ends[c.podA][c.rackA]++
				ends[c.podB][c.rackB]++
				switch c.tier {
				case fzPod:
					podHeld[c.podA][c.rackA]++
					podHeld[c.podB][c.rackB]++
					cross[c.podA]++
				case fzRow:
					rowHeld[c.podA]++
					rowHeld[c.podB]++
					cross[fzPods]++
				}
			}
			for p := 0; p < fzPods; p++ {
				pf := rf.Pod(p)
				for r := 0; r < fzRacks; r++ {
					if got := pf.FreeUplinks(r) + podHeld[p][r]; got != fzUplinks {
						t.Fatalf("after %s: pod %d rack %d: %d free uplinks + %d live circuits != %d uplinks",
							call, p, r, pf.FreeUplinks(r), podHeld[p][r], fzUplinks)
					}
					if got, want := pf.Rack(r).LiveCircuits(), ends[p][r]/2; got != want {
						t.Fatalf("after %s: pod %d rack %d LiveCircuits = %d, want %d", call, p, r, got, want)
					}
				}
				if got := rf.FreeUplinks(p) + rowHeld[p]; got != fzUplinks {
					t.Fatalf("after %s: pod %d: %d free row uplinks + %d live circuits != %d uplinks",
						call, p, rf.FreeUplinks(p), rowHeld[p], fzUplinks)
				}
				if got := pf.CrossCircuits(); got != cross[p] {
					t.Fatalf("after %s: pod %d CrossCircuits = %d, want %d", call, p, got, cross[p])
				}
			}
			if got := rf.CrossCircuits(); got != cross[fzPods] {
				t.Fatalf("after %s: row CrossCircuits = %d, want %d", call, got, cross[fzPods])
			}
			if got := [...]int{other.CrossCircuits(), other.Pod(0).CrossCircuits(), other.Pod(1).CrossCircuits(), other.Pod(2).CrossCircuits()}; got != otherCross {
				t.Fatalf("after %s: the foreign row's cross circuits moved: %v, want %v", call, got, otherCross)
			}
		}
		connected := func(call string, c *Circuit, err error, rec fzCircuit) {
			t.Helper()
			if err != nil {
				return
			}
			if _, dup := live[c]; dup {
				t.Fatalf("%s returned circuit %p, which is already live", call, c)
			}
			live[c] = rec
			order = append(order, c)
		}
		// disconnect tears c down through the fabric named by (tier,
		// pod, rack) and checks the call succeeds exactly when that
		// fabric owns c.
		disconnect := func(c *Circuit, tier, pod, rack int) {
			t.Helper()
			var err error
			switch tier {
			case fzRack:
				_, err = rf.Pod(pod).Rack(rack).Disconnect(c)
			case fzPod:
				_, err = rf.Pod(pod).DisconnectCross(c)
			default:
				_, err = rf.DisconnectCross(c)
			}
			rec, ok := live[c]
			owns := ok && rec.tier == tier && (tier == fzRow || rec.podA == pod) && (tier != fzRack || rec.rackA == rack)
			call := fmt.Sprintf("disconnect %v<->%v at tier %d pod %d rack %d", c.A, c.B, tier, pod, rack)
			if owns != (err == nil) {
				t.Fatalf("%s: owned %v, error %v", call, owns, err)
			}
			if err == nil {
				delete(live, c)
				for i, o := range order {
					if o == c {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
				retired = append(retired, c)
			}
			check(call)
		}

		r := &fzReader{data: data}
		for {
			op, ok := r.draw(4)
			if !ok {
				break
			}
			switch op {
			case 0:
				p, _ := r.draw(fzPods)
				k, _ := r.draw(fzRacks)
				a, _ := r.draw(fzPorts)
				b, ok := r.draw(fzPorts)
				if !ok {
					break
				}
				c, _, err := rf.Pod(p).Rack(k).Connect(portK(a), portK(b))
				call := fmt.Sprintf("rack connect p%d.r%d %d-%d", p, k, a, b)
				connected(call, c, err, fzCircuit{fzRack, p, k, p, k})
				check(call)
			case 1:
				p, _ := r.draw(fzPods)
				ra, _ := r.coord(fzRacks)
				rb, _ := r.coord(fzRacks)
				a, _ := r.draw(fzPorts)
				b, ok := r.draw(fzPorts)
				if !ok {
					break
				}
				c, _, err := rf.Pod(p).ConnectCross(ra, portK(a), rb, portK(b))
				call := fmt.Sprintf("pod %d connect r%d:%d-r%d:%d", p, ra, a, rb, b)
				connected(call, c, err, fzCircuit{fzPod, p, ra, p, rb})
				check(call)
			case 2:
				pa, _ := r.coord(fzPods)
				ra, _ := r.coord(fzRacks)
				pb, _ := r.coord(fzPods)
				rb, _ := r.coord(fzRacks)
				a, _ := r.draw(fzPorts)
				b, ok := r.draw(fzPorts)
				if !ok {
					break
				}
				c, _, err := rf.ConnectCross(pa, ra, portK(a), pb, rb, portK(b))
				call := fmt.Sprintf("row connect p%d.r%d:%d-p%d.r%d:%d", pa, ra, a, pb, rb, b)
				connected(call, c, err, fzCircuit{fzRow, pa, ra, pb, rb})
				check(call)
			case 3:
				src, _ := r.draw(3)
				idx, _ := r.draw(256)
				tier, _ := r.draw(3)
				p, _ := r.draw(fzPods)
				k, ok := r.draw(fzRacks)
				if !ok {
					break
				}
				pool := foreign
				switch {
				case src == 0 && len(order) > 0:
					pool = order
				case src == 1 && len(retired) > 0:
					pool = retired
				}
				disconnect(pool[idx%len(pool)], tier, p, k)
			}
		}
		// Drain: every live circuit through its owner, oldest first.
		for len(order) > 0 {
			c := order[0]
			rec := live[c]
			disconnect(c, rec.tier, rec.podA, rec.rackA)
		}
	})
}
