package hypervisor

import "fmt"

// Evict removes a VM from this hypervisor without stopping it, as part
// of migrating it to another brick's hypervisor. The VM object (with its
// guest kernel state and DIMM layout) travels to the destination via
// Adopt; until then no hypervisor accepts it.
func (h *Hypervisor) Evict(vm *VM) error {
	if err := h.hosts(vm); err != nil {
		return err
	}
	vm.host = nil
	return nil
}

// Adopt registers a VM evicted from another hypervisor. The guest's
// memory layout — boot RAM, hot-added DIMMs, balloon state — arrives
// intact; in a disaggregated rack the DIMM contents never moved, only
// the circuits feeding them were re-pointed. A VM still hosted
// anywhere, this hypervisor included, is refused.
func (h *Hypervisor) Adopt(vm *VM) error {
	if vm == nil {
		return fmt.Errorf("hypervisor: adopt of nil VM")
	}
	if vm.host != nil {
		return fmt.Errorf("hypervisor: VM %q already present", vm.ID)
	}
	if vm.state != StateRunning {
		return fmt.Errorf("hypervisor: adopt of %v VM %q", vm.state, vm.ID)
	}
	vm.host = h
	return nil
}
