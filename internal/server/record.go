package server

import (
	"encoding/binary"
	"io"
	"sync"
	"time"

	"thinc/internal/core"
	"thinc/internal/wire"
)

// Session recording. One of the uses §1 highlights for decoupled remote
// display is mirroring the output — instant technical support, session
// playback. A Recorder is simply one more THINC client whose command
// stream is written, timestamped, to an io.Writer instead of a socket;
// the translation layer's eviction and merging apply as for any client,
// so idle periods record nothing and overdrawn content is skipped.
//
// Record format, repeated:
//
//	8 bytes  microseconds since the recording started (big endian)
//	N bytes  one framed wire message
type Recorder struct {
	host  *Host
	w     io.Writer
	start time.Time

	// The recorder is delivered to like any connection (delivery,
	// pace.go): the damage hook wakes its task, and the pacing rule
	// books the paced timer only while a stream is in progress — an
	// idle screen costs no wakeups.
	delivery
	cl *core.Client

	// err and detached are written by the task and read by Close after
	// the task has stopped.
	err      error
	detached bool
	close    sync.Once
}

// Record attaches a recorder to the session. Close it to detach.
func (h *Host) Record(w io.Writer) *Recorder {
	r := &Recorder{host: h, w: w, start: time.Now()}
	var more bool // commands still queued after the latest drain
	step := func(call drainCall, _ int) (int, bool, error) {
		h.mu.Lock()
		msgs := call.take(r.cl.Buf, h.opts.FlushBudget)
		more = r.cl.Buf.Len() > 0
		h.mu.Unlock()
		n := 0
		for _, m := range msgs {
			if err := r.write(m); err != nil {
				return n, more, err
			}
			n += recordHeader + wire.WireSize(m)
		}
		return n, more, nil
	}
	pass := func(bool) (bool, bool, error) {
		sent, stepped, err := r.push.pass(step)
		if err != nil {
			return false, false, err
		}
		// A pass paying off the previous one's overshoot looked at
		// nothing; the next one will.
		return sent > 0, more || !stepped, nil
	}
	pending := func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return r.cl.Buf.Len() > 0
	}
	r.open(h, uint64(r.start.UnixNano()), func() {
		if err := r.deliver(pass, pending); err != nil {
			// A failed write ends the recording: stop taking wakes and
			// detach now, so the session stops queueing for it.
			r.err = err
			r.stop()
			r.detach()
		}
	}, func() { r.task.Wake() })
	h.mu.Lock()
	r.cl = h.core.AttachClient(0, 0) // full session geometry
	r.cl.Buf.SetOnQueued(r.push.request)
	h.mu.Unlock()
	r.push.request() // the attach queued the initial screen before the hook existed
	return r
}

// detach runs once the task has stopped, so its wakes count is final.
func (r *Recorder) detach() {
	r.host.mu.Lock()
	r.host.core.DetachClient(r.cl)
	r.host.retiredWakes += r.wakes()
	r.host.mu.Unlock()
	r.detached = true
}

// recordHeader is the timestamp ahead of each recorded message.
const recordHeader = 8

func (r *Recorder) write(m wire.Message) error {
	var ts [recordHeader]byte
	binary.BigEndian.PutUint64(ts[:], uint64(time.Since(r.start).Microseconds()))
	if _, err := r.w.Write(ts[:]); err != nil {
		return err
	}
	return wire.WriteMessage(r.w, m)
}

// Close stops the recording and returns any write error encountered.
func (r *Recorder) Close() error {
	r.close.Do(func() {
		r.release()
		if !r.detached {
			r.detach()
		}
	})
	return r.err
}

// Record entries are read back with ReadRecord.

// Record is one timestamped message from a session recording.
type Record struct {
	AtUS uint64
	Msg  wire.Message
}

// ReadRecord decodes the next entry; io.EOF marks a clean end.
func ReadRecord(r io.Reader) (Record, error) {
	var ts [8]byte
	if _, err := io.ReadFull(r, ts[:]); err != nil {
		return Record{}, err
	}
	m, err := wire.ReadMessage(r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	return Record{AtUS: binary.BigEndian.Uint64(ts[:]), Msg: m}, nil
}
