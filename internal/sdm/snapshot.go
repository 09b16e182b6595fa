package sdm

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/brick"
	"repro/internal/topo"
)

// This file is the SDM-C's operator interface: a serializable snapshot
// of everything the controller manages, in the spirit of the paper's
// role (d) — "generate all the necessary configurations and push them
// via appropriate interfaces". The snapshot is what an OpenStack-style
// frontend or dashboard would poll.

// BrickState is one brick's externally visible state.
type BrickState struct {
	ID    topo.BrickID `json:"id"`
	Kind  string       `json:"kind"`
	Power string       `json:"power"`

	// Compute bricks.
	Cores     int `json:"cores,omitempty"`
	UsedCores int `json:"usedCores,omitempty"`

	// Memory bricks.
	CapacityBytes uint64 `json:"capacityBytes,omitempty"`
	UsedBytes     uint64 `json:"usedBytes,omitempty"`
	Segments      int    `json:"segments,omitempty"`

	// Accelerator bricks.
	Slots     int `json:"slots,omitempty"`
	FreeSlots int `json:"freeSlots,omitempty"`

	FreePorts        int `json:"freePorts"`
	QuarantinedPorts int `json:"quarantinedPorts"`
}

// AttachmentState is one live attachment, flattened for the wire.
type AttachmentState struct {
	Owner      string       `json:"owner"`
	CPU        topo.BrickID `json:"cpu"`
	Memory     topo.BrickID `json:"memory"`
	Bytes      uint64       `json:"bytes"`
	WindowBase uint64       `json:"windowBase"`
	Mode       string       `json:"mode"`
	Riders     int          `json:"riders,omitempty"`
}

// Snapshot is the full orchestration state.
type Snapshot struct {
	Bricks      []BrickState      `json:"bricks"`
	Attachments []AttachmentState `json:"attachments"`
	BareMetal   map[string]string `json:"bareMetal,omitempty"` // brick -> tenant
	Circuits    int               `json:"circuits"`
	Requests    uint64            `json:"requests"`
	Failures    uint64            `json:"failures"`
}

// Snapshot captures the controller's current state. The result is
// deterministic: bricks in rack order, attachments in owner-then-window
// order.
func (c *Controller) Snapshot() Snapshot {
	var s Snapshot
	for pos, n := range c.computes {
		id := c.computeOrder[pos]
		s.Bricks = append(s.Bricks, BrickState{
			ID: id, Kind: topo.KindCompute.String(), Power: n.Brick.State().String(),
			Cores: n.Brick.Cores, UsedCores: n.Brick.UsedCores(),
			FreePorts: n.Brick.Ports.Free(), QuarantinedPorts: n.Brick.Ports.Quarantined(),
		})
	}
	for pos, m := range c.memories {
		id := c.memoryOrder[pos]
		s.Bricks = append(s.Bricks, BrickState{
			ID: id, Kind: topo.KindMemory.String(), Power: m.State().String(),
			CapacityBytes: uint64(m.Capacity), UsedBytes: uint64(m.Used()),
			Segments:  len(m.Segments()),
			FreePorts: m.Ports.Free(), QuarantinedPorts: m.Ports.Quarantined(),
		})
	}
	for pos, a := range c.accels {
		id := c.accelOrder[pos]
		s.Bricks = append(s.Bricks, BrickState{
			ID: id, Kind: topo.KindAccel.String(), Power: a.State().String(),
			Slots: a.Slots(), FreeSlots: a.FreeSlots(),
			FreePorts: a.Ports.Free(), QuarantinedPorts: a.Ports.Quarantined(),
		})
	}
	// Attachments: deterministic order via compute bricks' host index
	// first.
	seen := map[*Attachment]bool{}
	for ord := range c.computes {
		for _, att := range c.circuitHosts[ord] {
			s.Attachments = append(s.Attachments, c.attachmentState(att))
			seen[att] = true
		}
	}
	// Packet-mode and spilled attachments are not rack circuit hosts;
	// collect them by owner in sorted owner order, each owner's in
	// attach (stamp) order, for determinism.
	var rest []*Attachment
	for _, att := range c.live {
		if !seen[att] {
			rest = append(rest, att)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Owner != rest[j].Owner {
			return rest[i].Owner < rest[j].Owner
		}
		return rest[i].stamp < rest[j].stamp
	})
	for _, att := range rest {
		s.Attachments = append(s.Attachments, c.attachmentState(att))
	}
	if c.bareMetalCount > 0 {
		s.BareMetal = make(map[string]string, c.bareMetalCount)
		for pos, tenant := range c.bareMetal {
			if tenant != "" {
				s.BareMetal[c.computeOrder[pos].String()] = tenant
			}
		}
	}
	s.Circuits = c.fabric.LiveCircuits()
	s.Requests, s.Failures = c.requests, c.failures
	return s
}

func (c *Controller) attachmentState(att *Attachment) AttachmentState {
	return AttachmentState{
		Owner:      att.Owner,
		CPU:        att.CPU,
		Memory:     att.Segment.Brick,
		Bytes:      uint64(att.Size()),
		WindowBase: att.Window.Base,
		Mode:       att.Mode.String(),
		Riders:     att.Circuit.Riders,
	}
}

// MarshalJSON-friendly export of the whole snapshot.
func (s Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sdm: snapshot marshal: %w", err)
	}
	return b, nil
}

// ParseSnapshot decodes a snapshot produced by JSON.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("sdm: snapshot unmarshal: %w", err)
	}
	return s, nil
}

// TotalPooledBytes sums memory brick capacity in the snapshot.
func (s Snapshot) TotalPooledBytes() brick.Bytes {
	var n brick.Bytes
	for _, b := range s.Bricks {
		n += brick.Bytes(b.CapacityBytes)
	}
	return n
}
