package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"thinc/internal/audio"
	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/fb"
	"thinc/internal/server"
	"thinc/internal/shard"
	"thinc/internal/simnet"
	"thinc/internal/telemetry"
	"thinc/internal/xserver"
)

const (
	benchUser   = "bench"
	benchSecret = "bench-secret"
)

// serverOptions is what cmd/thinc-server ships — PNG for RAW payloads,
// every other field at its default (5 ms flush interval, heartbeats,
// audit, RC4) — with two stated exceptions: the overload ladder is off,
// which pins the lossless rung so the work per op is the same on every
// run, and the e2e mark loop (the program's own tracer) is on only in
// the traced pass.
func serverOptions(spec *workloadSpec, traced bool) server.Options {
	o := server.Options{
		Core:            core.Options{RawCodec: compress.CodecPNG},
		DisableOverload: true,
		DisableE2E:      !traced,
	}
	if spec.WAN {
		o.CacheKB = client.DefaultCacheRequestKB
	}
	return o
}

// wanLink is the shaped path of web_wan: 100 Mbps, 20 ms RTT
// (LinkParams.RTT counts microseconds), 1 MiB window.
var wanLink = simnet.LinkParams{Name: "WAN", Bandwidth: 100e6, RTT: 20 * 1000, Window: 1 << 20}

// rig is one workload set up and ready to take ops.
type rig struct {
	spec     *workloadSpec
	script   script
	sessions []*session
	reg      *telemetry.Registry

	fleet     *server.Fleet
	listener  net.Listener
	stopProxy func()
	served    sync.WaitGroup // Serve / ServeConn goroutines
	stopPoll  chan struct{}
	pollDone  chan struct{} // nil until the safety poller runs

	setup        time.Duration
	heapSessions int64 // live heap the attached, converged sessions added
}

// heapInUse returns HeapAlloc after a full collection (two cycles, so
// sync.Pool victims from torn-down rigs are gone too).
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// buildRig performs one complete set-up: inputs generated, hosts
// listening, clients attached and handshaken, and the initial
// full-screen sync converged on every session. Its duration excludes
// the two heap readings.
func buildRig(spec *workloadSpec, seed int64, traced bool) (r *rig, err error) {
	start := time.Now()
	r = &rig{spec: spec, script: spec.Script(seed, spec.Sessions),
		stopPoll: make(chan struct{})}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	probeStart := time.Now()
	heapBefore := heapInUse()
	probing := time.Since(probeStart)

	accounts := auth.NewAccounts()
	accounts.Add(benchUser, benchSecret)
	gate := auth.NewAuthenticator(benchUser, accounts)
	opts := serverOptions(spec, traced)

	if spec.Fleet {
		r.fleet = server.NewFleet(opts, shard.Options{Shards: 2})
		r.reg = r.fleet.Telemetry()
	}
	for i := 0; i < spec.Sessions; i++ {
		s := &session{ended: make(chan struct{})}
		r.sessions = append(r.sessions, s)
		if spec.Fleet {
			s.host = r.fleet.NewHost(spec.W, spec.H, gate)
		} else {
			s.host = server.NewHost(spec.W, spec.H, gate, opts)
			r.reg = s.host.Telemetry()
		}
		s.pcm = s.host.Audio().OpenStream(audio.CD)
		s.host.Do(func(d *xserver.Display) {
			paintDesktop(d, seed)
			s.draw = r.script.bind(i, d)
		})
		if err := r.attach(s); err != nil {
			return r, fmt.Errorf("attach session %d: %w", i, err)
		}
	}
	r.pollDone = make(chan struct{})
	go r.poll()
	if err := r.converge(30 * time.Second); err != nil {
		return r, err
	}
	r.setup = time.Since(start) - probing
	r.heapSessions = heapInUse() - heapBefore
	return r, nil
}

// attach connects a real client.Conn to s.host: loopback TCP (through
// the shaped proxy on web_wan) for a single host, an in-memory event
// pair served by Host.ServeConn on the fleet.
func (r *rig) attach(s *session) error {
	var err error
	if r.spec.Fleet {
		serverEnd, clientEnd := simnet.NewEventPair()
		r.served.Add(1)
		go func() {
			defer r.served.Done()
			_ = s.host.ServeConn(serverEnd) // ends with the connection; the oracle judges the session
		}()
		s.conn, err = client.Handshake(&tapConn{Conn: clientEnd, s: s},
			benchUser, benchSecret, r.spec.W, r.spec.H)
		if err != nil {
			_ = clientEnd.Close()
			return err
		}
	} else {
		r.listener, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		r.served.Add(1)
		go func() {
			defer r.served.Done()
			_ = s.host.Serve(r.listener) // returns when close() closes the listener
		}()
		addr := r.listener.Addr().String()
		if r.spec.WAN {
			addr, r.stopProxy, err = simnet.StartProxy(addr, wanLink)
			if err != nil {
				return err
			}
		}
		s.conn, err = client.DialWith(func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &tapConn{Conn: nc, s: s}, nil
		}, benchUser, benchSecret, r.spec.W, r.spec.H)
		if err != nil {
			return err
		}
	}
	go func() {
		defer close(s.ended)
		_ = s.conn.Run() // any exit but close() marks the session dead below
		s.dead.Store(true)
	}()
	return nil
}

// poll is the safety poller behind the read hook: it re-checks and
// expires pending ops every safetyTick.
func (r *rig) poll() {
	defer close(r.pollDone)
	t := time.NewTicker(safetyTick)
	defer t.Stop()
	for {
		select {
		case <-r.stopPoll:
			return
		case <-t.C:
			for _, s := range r.sessions {
				if s.npending.Load() > 0 {
					s.check(false)
				}
			}
		}
	}
}

// converged reports whether every client framebuffer equals its
// server's screen right now.
func (r *rig) converged() bool {
	for _, s := range r.sessions {
		same := false
		s.host.Do(func(d *xserver.Display) {
			s.conn.WithFB(func(f *fb.Framebuffer) { same = f.Equal(d.Screen()) })
		})
		if !same {
			return false
		}
	}
	return true
}

func (r *rig) converge(within time.Duration) error {
	deadline := time.Now().Add(within)
	for !r.converged() {
		if time.Now().After(deadline) {
			return errors.New("sessions did not converge")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// oracle is the end-of-workload correctness check: every client's
// framebuffer is byte-identical to its server's screen.
func (r *rig) oracle() error {
	if err := r.converge(opTimeout); err != nil {
		return err
	}
	for i, s := range r.sessions {
		if got, want := s.conn.Snapshot().Checksum(), s.host.ScreenChecksum(); got != want {
			return fmt.Errorf("session %d: client checksum %08x, server %08x", i, got, want)
		}
		if s.dead.Load() {
			return fmt.Errorf("session %d died", i)
		}
	}
	return nil
}

// close tears everything down and waits for every goroutine the rig
// started.
func (r *rig) close() {
	close(r.stopPoll)
	for _, s := range r.sessions {
		if s.conn != nil {
			_ = s.conn.Close()
			<-s.ended
		}
	}
	if r.listener != nil {
		_ = r.listener.Close()
	}
	if r.fleet != nil {
		r.fleet.Close()
	} else {
		for _, s := range r.sessions {
			s.host.Close()
		}
	}
	if r.stopProxy != nil {
		r.stopProxy()
	}
	r.served.Wait()
	if r.pollDone != nil {
		<-r.pollDone
	}
}
