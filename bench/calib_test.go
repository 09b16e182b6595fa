package main

import "testing"

// The calibration kernel's chase must visit every slot of its table
// before it comes back, or it would run inside a small cached loop.
func TestCalibrationTableIsOneCycle(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	at := c.get(0)
	for n := 1; at != 0; n++ {
		if n >= calSlots {
			t.Fatalf("no return to slot 0 after %d steps", n)
		}
		at = c.get(at)
		if at == 0 && n != calSlots-1 {
			t.Fatalf("cycle of %d slots, want %d", n+1, calSlots)
		}
	}
}
