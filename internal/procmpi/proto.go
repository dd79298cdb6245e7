// Package procmpi is the multi-process transport backend: each physical
// rank is a real OS process connected to a rank-zero coordinator over a
// Unix or TCP socket, exchanging length-prefixed frames (mpi.Frame).
// The coordinator is a routing hub — workers have exactly one connection
// each, and every data frame takes two hops (src → hub → dst) — which
// keeps rendezvous, liveness, and the epoch protocol in one place at the
// cost of one forwarding copy per message.
//
// Liveness is observed, not simulated: a worker is dead when its socket
// reaches EOF (the kernel reports a SIGKILLed process immediately) or
// when its heartbeats stop (a wedged-but-alive process, e.g. SIGSTOP).
// Both paths feed the same flight-recorder events ("dead", "revive",
// "interrupt", "resume", "abort") and the same Interrupt → Revive →
// Resume epoch protocol as the simulated backend, so the recovery
// orchestration and its forensics are transport-independent.
package procmpi

import (
	"encoding/binary"
	"fmt"
)

// Frame types on the worker⇄coordinator wire. Data frames carry
// application payloads end to end; everything else is the transport's
// control plane.
const (
	// frameData carries one application message; Src/Dst/Tag are the MPI
	// envelope and the payload is the message body. Worker → hub → worker.
	frameData byte = iota + 1
	// frameHello opens a worker connection: Src is the claimed rank, the
	// payload is the worker's PID (zero for in-process workers).
	frameHello
	// frameWelcome acknowledges a hello: the payload carries the world
	// size, the interrupted flag, and the current dead-rank set, so a
	// late or revived worker joins with a correct liveness view.
	frameWelcome
	// frameHeartbeat is the worker's periodic liveness proof.
	frameHeartbeat
	// frameDead announces a rank's death to every worker (Src = victim).
	frameDead
	// frameRevive announces a revived rank to every worker (Src = rank).
	frameRevive
	// frameInterrupt pauses the epoch; workers answer frameInterruptAck
	// once their blocked operations have been released.
	frameInterrupt
	frameInterruptAck
	// frameResume starts a fresh epoch; workers purge their mailboxes and
	// reset bookmark counts before answering frameResumeAck.
	frameResume
	frameResumeAck
	// frameAbort tears the attempt down.
	frameAbort
	// frameKilled tells a worker its own rank was fail-stopped (the
	// in-process analogue of SIGKILL).
	frameKilled
	// frameBye reports that the worker is leaving cleanly (worker →
	// hub): Tag 1 when its application completed, 0 when it stopped as
	// the casualty of a failure elsewhere. Either way its socket closing
	// afterwards is not a death.
	frameBye
	// frameStep relays an application step notification (Tag = step) so
	// the job runner can drive step-triggered kills.
	frameStep
	// frameAppErr reports an application error; the payload is the error
	// text.
	frameAppErr
	// frameRound arrives in the fault-tolerant round behind
	// mpi.Comm.Agree and Shrink: Tag is the worker's request sequence,
	// the payload two bytes, the flag and whether the survivors are
	// wanted (a Shrink). Worker → hub.
	frameRound
	// frameRoundResult completes a round: Tag echoes the request
	// sequence; the payload is the agreed flag byte and the survivor
	// list (empty unless a Shrink arrived).
	frameRoundResult
)

// encodeHello builds the hello payload: the worker's PID as 8 bytes big
// endian (zero when the worker is not its own process).
func encodeHello(pid int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(pid))
	return b[:]
}

func decodeHello(p []byte) (pid int, err error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("procmpi: hello payload %d bytes", len(p))
	}
	return int(binary.BigEndian.Uint64(p)), nil
}

// encodeWelcome builds the welcome payload: world size as a uint32,
// the interrupted flag, and the dead-rank set at join time.
func encodeWelcome(size int, interrupted bool, dead []int) []byte {
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 9+4*len(dead)), uint32(size))
	return appendRanks(append(b, flagByte(interrupted)), dead)
}

func decodeWelcome(p []byte) (size int, interrupted bool, dead []int, err error) {
	if len(p) < 5 {
		return 0, false, nil, fmt.Errorf("procmpi: welcome payload %d bytes", len(p))
	}
	dead, err = decodeRanks(p[5:])
	return int(binary.BigEndian.Uint32(p)), p[4] != 0, dead, err
}

// encodeRoundResult builds a round result's payload: the agreed flag,
// then the survivors.
func encodeRoundResult(flag bool, survivors []int) []byte {
	return appendRanks(append(make([]byte, 0, 5+4*len(survivors)), flagByte(flag)), survivors)
}

func decodeRoundResult(p []byte) (flag bool, survivors []int, err error) {
	if len(p) < 1 {
		return false, nil, fmt.Errorf("procmpi: round result payload %d bytes", len(p))
	}
	survivors, err = decodeRanks(p[1:])
	return p[0] != 0, survivors, err
}

// appendRanks appends a rank list: a uint32 count, then each rank as a
// uint32.
func appendRanks(b []byte, ranks []int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ranks)))
	for _, r := range ranks {
		b = binary.BigEndian.AppendUint32(b, uint32(r))
	}
	return b
}

// decodeRanks decodes a rank list that fills p exactly.
func decodeRanks(p []byte) ([]int, error) {
	if len(p) < 4 || len(p) != 4+4*int(binary.BigEndian.Uint32(p)) {
		return nil, fmt.Errorf("procmpi: rank list of %d bytes", len(p))
	}
	out := make([]int, (len(p)-4)/4)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(p[4+4*i:]))
	}
	return out, nil
}

func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
