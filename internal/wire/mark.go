package wire

import "encoding/binary"

// End-to-end update-tracing messages (protocol v5). The server stamps
// every translated command batch with a monotonically increasing flush
// epoch at the broadcast choke point; after a flush that delivered
// display traffic it appends a TimeMark naming the highest epoch the
// batch contained. The client answers with a MarkAck once it has fully
// decoded and applied everything up to the mark, closing the loop on a
// client-perceived latency measurement that needs no clock sync: all
// arithmetic stays on the server clock, with the one-way return leg
// estimated from the heartbeat min-RTT (bufferbloat-free floor).
// An unacked mark expires after the server's MarkTimeout.

// TimeMark asks the client to acknowledge epoch once the batch it
// arrived in has been applied. TimeUS is the server's send clock in
// microseconds; the client echoes it opaquely, so a reordered or
// duplicated ack can never be mistaken for a fresh one.
type TimeMark struct {
	Epoch  uint64 // flush epoch this mark closes (highest in the batch)
	TimeUS uint64 // server clock at emission, echoed by the ack
}

// Type implements Message.
func (m *TimeMark) Type() Type { return TTimeMark }

// PayloadSize implements Message: epoch 8 + time 8.
func (m *TimeMark) PayloadSize() int { return 16 }

func (m *TimeMark) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	return binary.BigEndian.AppendUint64(dst, m.TimeUS)
}

func decodeTimeMark(d *decoder) (*TimeMark, error) {
	m := &TimeMark{}
	m.Epoch = d.u64()
	m.TimeUS = d.u64()
	return m, d.check()
}

// MarkAck answers a TimeMark after the marked batch is on the client's
// framebuffer. ApplyUS is the client-measured decode+apply time spent
// on commands since the previous ack — a duration, not a timestamp, so
// it is meaningful across unsynchronized clocks and lets the server
// split the return path into wire time and client paint time.
type MarkAck struct {
	Epoch   uint64 // echoed mark epoch
	TimeUS  uint64 // echoed server clock from the mark
	ApplyUS uint32 // client decode+apply time since the last ack
}

// Type implements Message.
func (m *MarkAck) Type() Type { return TMarkAck }

// PayloadSize implements Message: epoch 8 + time 8 + apply 4.
func (m *MarkAck) PayloadSize() int { return 20 }

func (m *MarkAck) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, m.TimeUS)
	return binary.BigEndian.AppendUint32(dst, m.ApplyUS)
}

func decodeMarkAck(d *decoder) (*MarkAck, error) {
	m := &MarkAck{}
	m.Epoch = d.u64()
	m.TimeUS = d.u64()
	m.ApplyUS = d.u32()
	return m, d.check()
}
