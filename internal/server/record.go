package server

import (
	"encoding/binary"
	"io"
	"sync"
	"time"

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

	mu     sync.Mutex
	err    error
	closed bool
	stop   chan struct{}
	done   chan struct{}
}

// Record attaches a recorder to the session. Close it to detach.
func (h *Host) Record(w io.Writer) *Recorder {
	r := &Recorder{
		host:  h,
		w:     w,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	// The recorder is driven like any connection (see pace.go): the
	// damage hook wakes it, and the pacing rule holds a pass back only
	// while a stream is in progress — an idle screen costs no wakeups.
	wake := make(chan struct{}, 1) // the pusher keeps one request pending at most
	wakeUp := func() {
		select { // under h.mu: never block
		case wake <- struct{}{}:
		default:
		}
	}
	push := newPusher(h.opts.FlushInterval, wakeUp)
	h.mu.Lock()
	cl := h.core.AttachClient(0, 0) // full session geometry
	cl.Buf.SetOnQueued(push.request)
	h.mu.Unlock()
	push.request() // the attach queued the initial screen before the hook existed

	pass := func(bool) (wrote, more bool, err error) {
		h.mu.Lock()
		msgs := cl.Flush(h.opts.FlushBudget)
		more = cl.Buf.Len() > 0
		h.mu.Unlock()
		for _, m := range msgs {
			if err := r.write(m); err != nil {
				return false, false, err
			}
		}
		return len(msgs) > 0, more, nil
	}
	pending := func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return cl.Buf.Len() > 0
	}
	go func() {
		defer close(r.done)
		paced := newPacedTimer(wakeUp)
		defer paced.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-wake:
			}
			wait, err := push.deliver(pass, pending)
			if err != nil {
				r.mu.Lock()
				r.err = err
				r.mu.Unlock()
				return
			}
			if wait > 0 {
				paced.Reset(wait)
			}
		}
	}()
	// Detach on close.
	go func() {
		<-r.done
		h.mu.Lock()
		h.core.DetachClient(cl)
		h.mu.Unlock()
	}()
	return r
}

func (r *Recorder) write(m wire.Message) error {
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(time.Since(r.start).Microseconds()))
	if _, err := r.w.Write(ts[:]); err != nil {
		return err
	}
	return wire.WriteMessage(r.w, m)
}

// Close stops the recording and returns any write error encountered.
func (r *Recorder) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.mu.Unlock()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
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
