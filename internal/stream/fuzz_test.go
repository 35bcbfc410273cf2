package stream

import (
	"encoding/json"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netsim"
)

// FuzzCheckpointRestore drives outside bytes through the checkpoint
// decoder the way a cluster node receives them (a pulled or shipped
// handoff document): json.Unmarshal into a Checkpoint, then Restore
// into a fresh Europe engine. Any input may be rejected; none may
// panic, and a checkpoint that restores must checkpoint again.
func FuzzCheckpointRestore(f *testing.F) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		f.Fatal(err)
	}
	orig, err := New(sc.Rt, Config{Window: 3})
	if err != nil {
		f.Fatal(err)
	}
	runReplay(f, sc, orig, 4)
	cp := orig.Checkpoint()

	// Seeds: the real checkpoint plus TestRestoreValidation's rejection
	// cases (wrong format, dimensions, method, ring entry size).
	seed := func(mut func(*Checkpoint)) {
		c := cp
		c.Ring = append([]checkpointEntry(nil), cp.Ring...)
		mut(&c)
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*Checkpoint) {})
	seed(func(c *Checkpoint) { c.Format = 1 })
	seed(func(c *Checkpoint) { c.Format = 99 })
	seed(func(c *Checkpoint) { c.NumPairs++ })
	seed(func(c *Checkpoint) { c.Method = MethodVardi })
	seed(func(c *Checkpoint) { c.Ring[0].Demand = linalg.NewVector(3) })

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Checkpoint
		if json.Unmarshal(data, &c) != nil {
			return
		}
		eng, err := New(sc.Rt, Config{Window: 3})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Restore(c) != nil {
			return
		}
		if got := eng.Checkpoint(); got.Format != CheckpointFormat || got.NumPairs != sc.Net.NumPairs() {
			t.Fatalf("restored engine checkpoints format %d with %d pairs", got.Format, got.NumPairs)
		}
	})
}
