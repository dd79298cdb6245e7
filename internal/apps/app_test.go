package apps

import (
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

// TestMaybeCheckpointSnapshotsOnlyOnDueSteps pins the lazy-snapshot
// contract: the application's encode runs once per checkpoint
// (steps/StepInterval times), never on the steps in between, and never
// at all without a checkpoint client.
func TestMaybeCheckpointSnapshotsOnlyOnDueSteps(t *testing.T) {
	const ranks, steps, interval = 2, 23, 5
	store := checkpoint.NewMemStorage()
	w, err := simmpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [ranks]int
	appErr, failures := w.Run(func(c *simmpi.Comm) error {
		cl, err := checkpoint.NewClient(c, checkpoint.Config{Storage: store, StepInterval: interval})
		if err != nil {
			return err
		}
		ctx := &Context{Comm: c, Ckpt: cl}
		for step := 1; step <= steps; step++ {
			did, err := ctx.maybeCheckpoint(step, func() []byte {
				snaps[c.Rank()]++
				return []byte{byte(step)}
			})
			if err != nil {
				return err
			}
			if did != (step%interval == 0) {
				return fmt.Errorf("step %d: checkpointed = %v", step, did)
			}
		}
		return nil
	})
	if appErr != nil || len(failures) != 0 {
		t.Fatalf("app error %v, failures %v", appErr, failures)
	}
	for rank, n := range snaps {
		if n != steps/interval {
			t.Errorf("rank %d took %d snapshots, want %d", rank, n, steps/interval)
		}
	}

	noted := 0
	ctx := &Context{NoteStep: func(int) { noted++ }}
	for step := 1; step <= steps; step++ {
		if _, err := ctx.maybeCheckpoint(step, func() []byte {
			t.Fatalf("snapshot taken at step %d with Ckpt == nil", step)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if noted != steps {
		t.Errorf("NoteStep ran %d times without a checkpoint client, want %d", noted, steps)
	}
}

// TestCheckpointHooksRunEveryStep runs each checkpointing application at
// degree 2 and checks the per-step hook pattern runtimes rely on (the
// job benchmark marks each step's checkpoint line at IsWriter): every
// replica asks IsWriter on every step — once for the NoteStep gate and
// once for the checkpoint's writer flag — whether or not the step
// checkpoints; the writer replica reports every step through NoteStep;
// and the checkpoints land exactly every StepInterval steps.
func TestCheckpointHooksRunEveryStep(t *testing.T) {
	m, err := Laplacian2D(8)
	if err != nil {
		t.Fatal(err)
	}
	const interval = 2
	cases := []struct {
		steps int
		mk    func() App
	}{
		{20, func() App { return &CG{Matrix: m, Iterations: 20} }},
		{12, func() App { return &Stencil{Width: 8, Height: 8, Iterations: 12, HotBoundary: 100} }},
		{4, func() App { return &Eigen{Matrix: m, OuterIterations: 4, InnerIterations: 20} }},
	}
	for _, tc := range cases {
		name := tc.mk().Name()
		t.Run(name, func(t *testing.T) {
			const virtual = 2
			rm, err := redundancy.NewRankMap(virtual, 2)
			if err != nil {
				t.Fatal(err)
			}
			w, err := simmpi.NewWorld(rm.PhysicalSize())
			if err != nil {
				t.Fatal(err)
			}
			store := checkpoint.NewMemStorage()
			type hooks struct {
				replica, isWriter, checkpoints int
				noted                          []int
			}
			got := make([]hooks, rm.PhysicalSize())
			appErr, failures := w.Run(func(pc *simmpi.Comm) error {
				rc, err := redundancy.Wrap(pc, rm, mpi.WithLiveness(w))
				if err != nil {
					return err
				}
				cl, err := checkpoint.NewClient(rc, checkpoint.Config{Storage: store, StepInterval: interval})
				if err != nil {
					return err
				}
				h := &got[pc.Rank()]
				h.replica = rc.ReplicaIndex()
				writer := h.replica == 0
				err = tc.mk().Run(&Context{
					Comm: rc,
					Ckpt: cl,
					IsWriter: func() bool {
						h.isWriter++
						return writer
					},
					NoteStep: func(step int) { h.noted = append(h.noted, step) },
				})
				h.checkpoints = cl.Checkpoints()
				return err
			})
			if appErr != nil || len(failures) != 0 {
				t.Fatalf("app error %v, failures %v", appErr, failures)
			}
			for phys, h := range got {
				if h.isWriter != 2*tc.steps {
					t.Errorf("phys %d: IsWriter called %d times over %d steps, want %d",
						phys, h.isWriter, tc.steps, 2*tc.steps)
				}
				if h.checkpoints != tc.steps/interval {
					t.Errorf("phys %d: %d checkpoints, want %d", phys, h.checkpoints, tc.steps/interval)
				}
				var want []int
				if h.replica == 0 {
					for step := 1; step <= tc.steps; step++ {
						want = append(want, step)
					}
				}
				if fmt.Sprint(h.noted) != fmt.Sprint(want) {
					t.Errorf("phys %d (replica %d): NoteStep saw %v, want %v", phys, h.replica, h.noted, want)
				}
			}
		})
	}
}
