package fleet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/stream"
)

// Lifecycle sentinels, shared by whatever hosts handles (the serving
// layer's adopt endpoint, the cluster runtime): callers classify with
// errors.Is and map them onto their own surface.
var (
	// ErrUnknownTenant: the named tenant is not declared anywhere the
	// callee can see (fleet, cluster config).
	ErrUnknownTenant = errors.New("unknown tenant")
	// ErrAlreadyHosted: an adoption was asked of a node that already
	// runs the tenant — idempotent success for a promotion retry.
	ErrAlreadyHosted = errors.New("tenant already hosted here")
)

// Handle is the serving seam over a locally-owned tenant: the
// identity, snapshot and checkpoint reads the serving layer makes
// (internal/serve reads every tenant through it, and serves Checkpoint
// as the cluster's handoff document). *Tenant is the implementation;
// the interface lets a server front any set of tenants, or a test
// stub. Lifecycle control (status, restore, adoption) stays on the
// concrete *Tenant and *Fleet, and a tenant's state moves between
// nodes only as a checkpoint (see internal/cluster).
type Handle interface {
	// Name returns the tenant's unique name.
	Name() string
	// Spec returns the spec the tenant was declared with.
	Spec() TenantSpec
	// Latest returns the most recent published snapshot, if any.
	Latest() (stream.Snapshot, bool)
	// WaitVersion blocks until a snapshot with Version >= min is
	// published, ctx is done, or the tenant stops.
	WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error)
	// Metrics returns the estimation-error history.
	Metrics() []stream.MetricPoint
	// Position reports the latest snapshot's version and interval.
	Position() (version uint64, interval int, ok bool)
	// Checkpoint captures the tenant's current engine state — the
	// migration handoff document.
	Checkpoint() stream.Checkpoint
}

// Compile-time proof that a tenant satisfies the serving interface.
var _ Handle = (*Tenant)(nil)

// Latest returns the tenant's most recent published snapshot.
func (t *Tenant) Latest() (stream.Snapshot, bool) { return t.eng.Latest() }

// WaitVersion blocks until the tenant publishes version >= min.
func (t *Tenant) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	return t.eng.WaitVersion(ctx, min)
}

// Metrics returns the tenant's estimation-error history.
func (t *Tenant) Metrics() []stream.MetricPoint { return t.eng.Metrics() }

// Position reports the latest snapshot's version and interval.
func (t *Tenant) Position() (uint64, int, bool) { return t.eng.Position() }

// Checkpoint captures the tenant's current engine state. Safe while
// the tenant runs.
func (t *Tenant) Checkpoint() stream.Checkpoint { return t.eng.Checkpoint() }

// Restore installs a checkpoint on the tenant's engine. A script
// tenant is first moved onto the checkpoint's topology epoch by
// replaying its timeline's routing swaps (each applies immediately at
// interval 0); the remaining scripted swaps are then armed. Used by
// Fleet.RestoreAll at boot and by Fleet.Adopt when a shipped
// checkpoint arrives from a previous owner.
func (t *Tenant) Restore(cp stream.Checkpoint) error {
	if t.tl != nil {
		for ep := t.eng.TopologyEpoch() + 1; ep <= cp.TopologyEpoch; ep++ {
			rt, ok := t.tl.EpochRouting(ep)
			if !ok {
				return fmt.Errorf("checkpoint is at topology epoch %d, the script only has %d",
					cp.TopologyEpoch, len(t.tl.Epochs))
			}
			if err := t.eng.SwapRouting(rt, ep, 0); err != nil {
				return fmt.Errorf("moving onto checkpointed epoch %d: %w", ep, err)
			}
		}
	}
	if err := t.eng.Restore(cp); err != nil {
		return err
	}
	t.mu.Lock()
	t.restored = true
	t.mu.Unlock()
	return t.armSwaps()
}

// Handles returns every tenant as a serving handle, in declaration
// order — the view the serving layer reads through.
func (f *Fleet) Handles() []Handle {
	tenants := f.Tenants()
	out := make([]Handle, len(tenants))
	for i, t := range tenants {
		out[i] = t
	}
	return out
}

// Handle looks a tenant's serving handle up by name.
func (f *Fleet) Handle(name string) (Handle, bool) {
	t, ok := f.Tenant(name)
	if !ok {
		return nil, false
	}
	return t, true
}
