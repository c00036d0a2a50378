package server

import (
	"errors"
	"os"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/shard"
	"thinc/internal/simnet"
	"thinc/internal/telemetry"
	"thinc/internal/testutil"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// seriesVal reads one counter/gauge value from a registry snapshot.
func seriesVal(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("series %s not registered", name)
	return 0
}

// serveEvent runs the server side of an event-session handshake
// concurrently with the client side and returns both ends.
func serveEvent(t *testing.T, host *Host, nc *simnet.EventConn, cln *simnet.EventConn, vw, vh int) (*EventSession, *client.Conn) {
	t.Helper()
	type res struct {
		es  *EventSession
		err error
	}
	resC := make(chan res, 1)
	go func() {
		es, err := host.ServeEvent(nc)
		resC <- res{es, err}
	}()
	conn, err := client.Handshake(cln, "owner", "pw", vw, vh)
	if err != nil {
		t.Fatal(err)
	}
	r := <-resC
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.es, conn
}

// TestFleetEventSession drives a fully event-driven session on a Fleet:
// the shared scheduler delivers damage with zero per-session goroutines
// on the server, inbound control flows through EventSession.Deliver, and
// the fleet-wide telemetry sees it all.
func TestFleetEventSession(t *testing.T) {
	testutil.CheckGoroutines(t)
	inputs := make(chan *wire.Input, 1)
	fleet := NewFleet(Options{
		FlushInterval:     time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Second,
		DisableAudit:      true,
		OnInput: func(v *wire.Input) {
			select {
			case inputs <- v:
			default:
			}
		},
	}, shard.Options{Shards: 2})
	defer fleet.Close()

	host := fleet.NewHost(96, 64, testGate())
	if got := len(fleet.Hosts()); got != 1 {
		t.Fatalf("fleet has %d hosts, want 1", got)
	}
	if fleet.Scheduler() == nil {
		t.Fatal("fleet scheduler missing")
	}

	srv, cln := simnet.NewEventPair()
	es, conn := serveEvent(t, host, srv, cln, 96, 64)
	defer conn.Close()
	go conn.Run()

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 96, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(30, 90, 200)}, geom.XYWH(0, 0, 96, 64))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 8, 8, "event")
	})
	want := host.ScreenChecksum()
	waitFor(t, "event client convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})

	// Inbound without a reader goroutine: a delivered Ping queues a Pong
	// echo for the pump's control drain; a delivered Input reaches the
	// display's input path just like a socket read would.
	if err := es.Deliver(&wire.Ping{Seq: 7, TimeUS: 1}); err != nil {
		t.Fatalf("Deliver(Ping): %v", err)
	}
	if err := es.Deliver(&wire.Input{X: 11, Y: 13}); err != nil {
		t.Fatalf("Deliver(Input): %v", err)
	}
	select {
	case in := <-inputs:
		if in.X != 11 || in.Y != 13 {
			t.Fatalf("delivered input = (%d,%d)", in.X, in.Y)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivered input never reached the display")
	}
	if es.Err() != nil {
		t.Fatalf("session errored early: %v", es.Err())
	}

	if got := seriesVal(t, fleet.Telemetry(), "thinc_fleet_clients"); got != 1 {
		t.Fatalf("thinc_fleet_clients = %d, want 1", got)
	}
	if got := seriesVal(t, fleet.Telemetry(), "thinc_shard_tasks"); got != 1 {
		t.Fatalf("thinc_shard_tasks = %d, want 1", got)
	}

	// Teardown: Close is idempotent and Done/Err report it. The parked
	// session shows up in the fleet's detached gauge until host close.
	es.Close()
	select {
	case <-es.Done():
	default:
		t.Fatal("Done still open after Close returned")
	}
	if err := es.Err(); !errors.Is(err, errSessionClosed) {
		t.Fatalf("Err = %v, want errSessionClosed", err)
	}
	if err := es.Deliver(&wire.Ping{}); !errors.Is(err, errSessionClosed) {
		t.Fatalf("Deliver after close = %v", err)
	}
	waitFor(t, "detached gauge", func() bool {
		return seriesVal(t, fleet.Telemetry(), "thinc_fleet_detached_sessions") == 1
	})
}

// TestEventSessionReapedWhenSilent: with no reader goroutine the
// heartbeat pass is the liveness check — a peer that never answers any
// ping is torn down with a timeout once the silence outlasts a full
// ping round plus the configured timeout.
func TestEventSessionReapedWhenSilent(t *testing.T) {
	testutil.CheckGoroutines(t)
	fleet := NewFleet(Options{
		FlushInterval:     time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  25 * time.Millisecond,
		DisableAudit:      true,
	}, shard.Options{Shards: 1})
	defer fleet.Close()

	host := fleet.NewHost(48, 32, testGate())
	srv, cln := simnet.NewEventPair()
	es, conn := serveEvent(t, host, srv, cln, 48, 32)
	defer conn.Close()
	// No Deliver calls and no client reader: the server's pings pile up
	// unanswered until the reap fires.
	select {
	case <-es.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("silent event session was never reaped")
	}
	if err := es.Err(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("reap error = %v, want deadline exceeded", err)
	}
	var ne interface{ Timeout() bool }
	if !errors.As(es.Err(), &ne) || !ne.Timeout() {
		t.Fatalf("reap error %v is not a net-style timeout", es.Err())
	}
}

// TestServeEventPlainHost: a plain host serves event sessions too, each
// on a private one-worker pool, and its registry carries the task
// series that pool feeds. Closing the session stops that worker.
func TestServeEventPlainHost(t *testing.T) {
	testutil.CheckGoroutines(t)
	host := NewHost(48, 32, testGate(), Options{FlushInterval: time.Millisecond, DisableAudit: true})
	defer host.Close()
	srv, cln := simnet.NewEventPair()
	es, conn := serveEvent(t, host, srv, cln, 48, 32)
	defer conn.Close()
	go conn.Run()

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 48, 32))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(200, 90, 30)}, geom.XYWH(0, 0, 48, 32))
	})
	want := host.ScreenChecksum()
	waitFor(t, "event client convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
	reg := host.Telemetry()
	if runs := reg.Total("thinc_shard_task_runs_total"); runs == 0 {
		t.Fatal("the connection's pool ran no tasks")
	}
	if n, _ := reg.HistogramStats("thinc_shard_task_wait_ns"); n == 0 {
		t.Fatal("the connection's pool fed no task-wait samples")
	}
	es.Close()
	if err := es.Err(); !errors.Is(err, errSessionClosed) {
		t.Fatalf("Err = %v, want errSessionClosed", err)
	}
}

// TestFleetSharesScheduler: two hosts on one fleet share the worker
// pool, and Close tears down hosts then scheduler without stranding
// either session.
func TestFleetSharesScheduler(t *testing.T) {
	testutil.CheckGoroutines(t)
	fleet := NewFleet(Options{
		FlushInterval:     time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Second,
		DisableAudit:      true,
	}, shard.Options{Shards: 2})

	h1 := fleet.NewHost(32, 24, testGate())
	h2 := fleet.NewHost(64, 48, testGate())
	s1, c1 := simnet.NewEventPair()
	s2, c2 := simnet.NewEventPair()
	es1, conn1 := serveEvent(t, h1, s1, c1, 32, 24)
	es2, conn2 := serveEvent(t, h2, s2, c2, 64, 48)
	defer conn1.Close()
	defer conn2.Close()

	if got := seriesVal(t, fleet.Telemetry(), "thinc_shard_tasks"); got != 2 {
		t.Fatalf("thinc_shard_tasks = %d, want 2 (both hosts share the pool)", got)
	}
	if got := seriesVal(t, fleet.Telemetry(), "thinc_fleet_hosts"); got != 2 {
		t.Fatalf("thinc_fleet_hosts = %d, want 2", got)
	}

	fleet.Close()
	for _, es := range []*EventSession{es1, es2} {
		select {
		case <-es.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("fleet close stranded an event session")
		}
	}
}
