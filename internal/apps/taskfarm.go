package apps

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mpi"
)

// TaskFarm is a master/worker application: rank 0 hands out task indices
// and collects results with wildcard receives (MPI_ANY_SOURCE), the
// pattern whose replica-consistent handling needs the paper's §3
// envelope-forwarding protocol. Workers compute f(task) for a simple
// integer function, so the aggregate is exact and order-independent.
//
// The farm runs to completion in one attempt (its wildcard-driven state
// is not checkpointed); it exists to exercise wildcard receives under
// redundancy and as the paper's master/slave ABFT-style example workload.
type TaskFarm struct {
	// Tasks is the number of work items.
	Tasks int

	// Total is the aggregated result on every rank after Run.
	Total int64
}

var _ App = (*TaskFarm)(nil)

// Name implements App.
func (tf *TaskFarm) Name() string { return "taskfarm" }

const (
	tagWork   = 201 // master → worker: task index, or control sentinel
	tagResult = 202 // worker → master: task result
	tagTotal  = 203 // master → workers: final aggregate
)

// Control sentinels carried on tagWork in place of a task index.
const (
	taskStop   = -1 // no more work: leave the farm
	taskShrink = -2 // a worker died: meet at the Shrink collective
)

// taskValue is the work function: a small deterministic computation.
func taskValue(task int) int64 {
	v := int64(task)
	return v*v%9973 + v
}

// Run implements App.
func (tf *TaskFarm) Run(ctx *Context) error {
	if tf.Tasks <= 0 {
		return fmt.Errorf("taskfarm: need positive Tasks")
	}
	c := ctx.Comm
	if c.Size() < 2 {
		return fmt.Errorf("taskfarm: need at least 2 ranks")
	}
	if ctx.ShrinkRecovery {
		if c.Rank() == 0 {
			return tf.masterShrink(ctx)
		}
		return tf.workerShrink(ctx)
	}
	if c.Rank() == 0 {
		return tf.master(ctx)
	}
	return tf.worker(ctx)
}

func (tf *TaskFarm) master(ctx *Context) error {
	c := ctx.Comm
	workers := c.Size() - 1
	next := 0
	outstanding := 0
	var total int64

	// Prime every worker with one task (or stop it immediately).
	for w := 1; w <= workers; w++ {
		if next < tf.Tasks {
			if err := c.Send(w, tagWork, encodeTask(next)); err != nil {
				return err
			}
			next++
			outstanding++
		} else {
			if err := c.Send(w, tagWork, encodeTask(-1)); err != nil {
				return err
			}
		}
	}
	// Collect results with wildcard receives, handing out work until
	// exhausted.
	for outstanding > 0 {
		msg, err := c.Recv(mpi.AnySource, tagResult)
		if err != nil {
			return err
		}
		task, value, err := decodeResult(msg.Data)
		if err != nil {
			return err
		}
		if want := taskValue(task); value != want {
			return fmt.Errorf("taskfarm: task %d returned %d, want %d", task, value, want)
		}
		total += value
		outstanding--
		reply := -1
		if next < tf.Tasks {
			reply = next
			next++
			outstanding++
		}
		if err := c.Send(msg.Source, tagWork, encodeTask(reply)); err != nil {
			return err
		}
	}
	// Publish the aggregate so every rank (and test) can check it.
	if _, err := mpi.Bcast(c, 0, encodeTask64(total)); err != nil {
		return err
	}
	tf.Total = total
	return nil
}

func (tf *TaskFarm) worker(ctx *Context) error {
	c := ctx.Comm
	for {
		msg, err := c.Recv(0, tagWork)
		if err != nil {
			return err
		}
		task, err := decodeTask(msg.Data)
		if err != nil {
			return err
		}
		if task < 0 {
			break
		}
		ctx.compute()
		if err := c.Send(0, tagResult, encodeResult(task, taskValue(task))); err != nil {
			return err
		}
	}
	buf, err := mpi.Bcast(c, 0, nil)
	if err != nil {
		return err
	}
	tf.Total, err = decodeTask64(buf)
	return err
}

// masterShrink is the fault-tolerant master: it observes worker deaths
// through the communicator's errhandler (never by sniffing error
// identities), requeues the dead worker's in-flight task, and repairs
// the farm on the survivors with a Shrink collective. Unlike the plain
// master it never stops an idle worker early — every survivor stays in
// its receive loop so it can reach the Shrink collective of a later
// repair — and the stop sentinel goes out only once all tasks are done.
// The master itself is the farm's single point of failure: its death is
// not survivable and simply fails the job.
func (tf *TaskFarm) masterShrink(ctx *Context) error {
	c := ctx.Comm
	failed, handled := 0, 0
	install := func(comm mpi.Comm) {
		comm.SetErrhandler(func(mpi.FailureInfo) { failed++ })
	}
	install(c)

	next, completed := 0, 0
	var requeued []int
	inflight := make(map[int]int) // worker rank (current comm) → task
	var total int64

	// assign hands the next task (requeued first) to an idle worker; with
	// nothing left the worker is left parked in its receive loop.
	assign := func(w int) error {
		task := -1
		if n := len(requeued); n > 0 {
			task = requeued[n-1]
			requeued = requeued[:n-1]
		} else if next < tf.Tasks {
			task = next
			next++
		}
		if task < 0 {
			return nil
		}
		if err := c.Send(w, tagWork, encodeTask(task)); err != nil {
			return err
		}
		inflight[w] = task
		return nil
	}
	for w := 1; w < c.Size(); w++ {
		if err := assign(w); err != nil {
			return err
		}
	}

	for completed < tf.Tasks {
		msg, err := c.Recv(mpi.AnySource, tagResult)
		if err != nil {
			if failed == handled {
				return err // not a failure this master was notified of
			}
			// Watermark to the count observed BEFORE the repair: the
			// errhandler can fire during the repair's own collectives (a
			// second sphere dying mid-Shrink), and such a failure arrived
			// too late for the shrink's survivor agreement — it is still
			// pending and must trigger the next repair, not be absorbed.
			observed := failed
			nc, rerr := tf.repairMaster(c, inflight, &requeued)
			if rerr != nil {
				return rerr
			}
			c = nc
			install(c)
			handled = observed
			if c.Size() < 2 {
				return fmt.Errorf("taskfarm: no workers survived")
			}
			for w := 1; w < c.Size(); w++ {
				if _, busy := inflight[w]; !busy {
					if err := assign(w); err != nil {
						return err
					}
				}
			}
			continue
		}
		task, value, err := decodeResult(msg.Data)
		if err != nil {
			return err
		}
		if want := taskValue(task); value != want {
			return fmt.Errorf("taskfarm: task %d returned %d, want %d", task, value, want)
		}
		total += value
		completed++
		delete(inflight, msg.Source)
		if ctx.NoteStep != nil && ctx.writer() {
			ctx.NoteStep(completed)
		}
		if err := assign(msg.Source); err != nil {
			return err
		}
	}

	// The total goes to each worker point to point rather than by a tree
	// Bcast: a worker killed now would otherwise be a dead relay whose
	// subtree never receives it, while a send to a dead rank is dropped.
	for w := 1; w < c.Size(); w++ {
		if err := c.Send(w, tagWork, encodeTask(taskStop)); err != nil {
			return err
		}
		if err := c.Send(w, tagTotal, encodeTask64(total)); err != nil {
			return err
		}
	}
	tf.Total = total
	return nil
}

// repairMaster runs one shrink episode: every live worker is directed
// to the Shrink collective, the survivors agree on the new
// communicator, and in-flight work owed by non-survivors goes back on
// the queue. Requeueing is driven by post-shrink membership, not by the
// failure notifications, so a death landing mid-repair still has its
// task recovered.
func (tf *TaskFarm) repairMaster(c mpi.Comm, inflight map[int]int, requeued *[]int) (mpi.Comm, error) {
	// Sends to dead ranks are silently dropped, so the fan-out is safe.
	for w := 1; w < c.Size(); w++ {
		if err := c.Send(w, tagWork, encodeTask(taskShrink)); err != nil {
			return nil, err
		}
	}
	sh, err := shrinkComm(c)
	if err != nil {
		return nil, err
	}
	// Iterate workers in rank order: master replicas must make identical
	// requeue (and hence reassignment) decisions in identical order.
	busy := make([]int, 0, len(inflight))
	for w := range inflight {
		busy = append(busy, w)
	}
	sort.Ints(busy)
	moved := make(map[int]int, len(inflight))
	for _, w := range busy {
		if nw, ok := shrinkRemap(c, sh, w); ok {
			moved[nw] = inflight[w]
		} else {
			*requeued = append(*requeued, inflight[w])
		}
		delete(inflight, w)
	}
	for w, t := range moved {
		inflight[w] = t
	}
	return sh, nil
}

// workerShrink is the fault-tolerant worker: the plain work loop plus
// the shrink sentinel, which routes it into the repair collective. A
// worker never observes its peers' deaths directly — the master
// serialises every repair through tagWork — so a receive error here
// means the master (or this worker itself) is gone, which is fatal.
func (tf *TaskFarm) workerShrink(ctx *Context) error {
	c := ctx.Comm
	for {
		msg, err := c.Recv(0, tagWork)
		if err != nil {
			return err
		}
		task, err := decodeTask(msg.Data)
		if err != nil {
			return err
		}
		if task == taskShrink {
			sh, serr := shrinkComm(c)
			if serr != nil {
				return serr
			}
			c = sh
			continue
		}
		if task < 0 {
			break
		}
		ctx.compute()
		if err := c.Send(0, tagResult, encodeResult(task, taskValue(task))); err != nil {
			return err
		}
	}
	msg, err := c.Recv(0, tagTotal)
	if err != nil {
		return err
	}
	tf.Total, err = decodeTask64(msg.Data)
	return err
}

func encodeTask(task int) []byte { return encodeTask64(int64(task)) }

func encodeTask64(v int64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return buf[:]
}

func decodeTask(buf []byte) (int, error) {
	v, err := decodeTask64(buf)
	return int(v), err
}

func decodeTask64(buf []byte) (int64, error) {
	if len(buf) != 8 {
		return 0, fmt.Errorf("taskfarm: %d-byte task message", len(buf))
	}
	return int64(binary.LittleEndian.Uint64(buf)), nil
}

func encodeResult(task int, value int64) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(int64(task)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(value))
	return buf[:]
}

func decodeResult(buf []byte) (task int, value int64, err error) {
	if len(buf) != 16 {
		return 0, 0, fmt.Errorf("taskfarm: %d-byte result message", len(buf))
	}
	return int(int64(binary.LittleEndian.Uint64(buf[:8]))),
		int64(binary.LittleEndian.Uint64(buf[8:])), nil
}
