package checkpoint

import (
	"fmt"

	"repro/internal/mpi"
)

// Peer wire codec. Frames carry an opcode, the generation, the virtual
// rank, the shard index, and the original snapshot size a reconstructor
// needs to strip the erasure padding:
//
//	op (1) | gen (8 LE) | vrank (8 LE) | shard idx (2 LE, int16) | size (4 LE)
//
// The hot encode path writes into a transport-pooled buffer via
// sendPeerFrame, so steady-state replication allocates nothing; the
// plain encodePeer fallback exists for transports without the
// mpi.SharedSender capability and for tests.

const peerHeaderLen = 23

// peerFrame is one decoded peer-protocol message.
type peerFrame struct {
	op      byte
	gen     uint64
	v       int
	idx     int16  // shard index
	size    uint32 // original snapshot size (pre-padding)
	payload []byte
}

// encodePeerInto writes the frame into buf, which must hold exactly
// peerHeaderLen+len(payload) bytes.
func encodePeerInto(buf []byte, fr peerFrame) {
	buf[0] = fr.op
	for b := 0; b < 8; b++ {
		buf[1+b] = byte(fr.gen >> (8 * b))
		buf[9+b] = byte(uint64(fr.v) >> (8 * b))
	}
	buf[17] = byte(uint16(fr.idx))
	buf[18] = byte(uint16(fr.idx) >> 8)
	for b := 0; b < 4; b++ {
		buf[19+b] = byte(fr.size >> (8 * b))
	}
	copy(buf[peerHeaderLen:], fr.payload)
}

// encodePeer allocates and fills a frame buffer.
func encodePeer(fr peerFrame) []byte {
	buf := make([]byte, peerHeaderLen+len(fr.payload))
	encodePeerInto(buf, fr)
	return buf
}

func decodePeer(buf []byte) (peerFrame, error) {
	if len(buf) < peerHeaderLen {
		return peerFrame{}, fmt.Errorf("checkpoint: peer frame of %d bytes", len(buf))
	}
	var fr peerFrame
	fr.op = buf[0]
	var vu uint64
	for b := 0; b < 8; b++ {
		fr.gen |= uint64(buf[1+b]) << (8 * b)
		vu |= uint64(buf[9+b]) << (8 * b)
	}
	fr.v = int(int64(vu))
	fr.idx = int16(uint16(buf[17]) | uint16(buf[18])<<8)
	for b := 0; b < 4; b++ {
		fr.size |= uint32(buf[19+b]) << (8 * b)
	}
	fr.payload = buf[peerHeaderLen:]
	return fr, nil
}

// sendPeerFrame encodes fr into a transport-pooled buffer (when the
// communicator supports shared sends) and ships it. The payload is
// copied into the wire buffer, so the caller's slice is free the moment
// this returns.
func sendPeerFrame(comm mpi.Comm, dst, tag int, fr peerFrame) error {
	n := peerHeaderLen + len(fr.payload)
	if ss, ok := comm.(mpi.SharedSender); ok {
		buf, pb := ss.AcquireBuffer(n)
		encodePeerInto(buf, fr)
		err := ss.SendPooled(dst, tag, buf, pb)
		if pb != nil {
			pb.Release()
		}
		return err
	}
	return comm.Send(dst, tag, encodePeer(fr))
}
