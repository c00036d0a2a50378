// Command thinc-client is the headless instrumented THINC client the
// paper deployed to remote sites (§8.1): it authenticates, processes
// the full display and audio stream without output hardware, and
// reports per-command-type traffic statistics.
//
// Usage:
//
//	thinc-client -addr localhost:4900 -user demo -pass demo -duration 5s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"thinc/internal/client"
	"thinc/internal/logx"
	"thinc/internal/wire"
)

var lg = logx.Component("thinc-client")

func main() {
	addr := flag.String("addr", "localhost:4900", "server address")
	user := flag.String("user", "demo", "user name")
	pass := flag.String("pass", "demo", "password (or shared-session password)")
	vw := flag.Int("view-width", 0, "viewport width (0 = session size)")
	vh := flag.Int("view-height", 0, "viewport height (0 = session size)")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	click := flag.Bool("click", false, "send a test mouse click after connecting")
	reconnect := flag.Bool("reconnect", false, "auto-reconnect with backoff and resume the session by ticket")
	viewer := flag.Bool("viewer", false, "attach read-only to the session broadcast (input is discarded)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	if err := logx.Setup(*logFormat, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	role := wire.RoleOwner
	if *viewer {
		role = wire.RoleViewer
	}
	conn, err := client.DialRole(*addr, *user, *pass, *vw, *vh, role)
	if err != nil {
		fmt.Fprintf(os.Stderr, "connect: %v\n", err)
		os.Exit(1)
	}
	defer conn.Close()
	lg.Info("connected", "user", *user,
		"session_w", conn.ServerW, "session_h", conn.ServerH,
		"view_w", conn.Snapshot().W(), "view_h", conn.Snapshot().H())

	done := make(chan error, 1)
	if *reconnect {
		// Detect a dead server promptly (its heartbeats arrive well
		// within this window) and redial instead of exiting.
		conn.ReadTimeout = 30 * time.Second
		go func() { done <- conn.RunAuto(client.ReconnectPolicy{}) }()
	} else {
		go func() { done <- conn.Run() }()
	}

	if *click {
		_ = conn.SendInput(&wire.Input{
			Kind: wire.InputMouseButton,
			X:    conn.ServerW / 2, Y: conn.ServerH / 2,
			Code: 1, Press: true,
			TimeUS: uint64(time.Now().UnixMicro()),
		})
	}

	select {
	case err := <-done:
		lg.Warn("stream ended", "user", *user, "err", fmt.Sprint(err))
	case <-time.After(*duration):
	}

	st := conn.Stats()
	fmt.Printf("state: %v, reconnects: %d, pongs answered: %d\n",
		st.State, st.Reconnects, st.PongsSent)
	fmt.Printf("screen checksum: %08x\n", conn.Snapshot().Checksum())
	fmt.Printf("%-12s %10s %12s\n", "command", "count", "bytes")
	var types []wire.Type
	for ty := range st.Messages {
		types = append(types, ty)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	var total int64
	for _, ty := range types {
		fmt.Printf("%-12v %10d %12d\n", ty, st.Messages[ty], st.Bytes[ty])
		total += st.Bytes[ty]
	}
	fmt.Printf("%-12s %10s %12d\n", "total", "", total)
	if st.FramesShown > 0 {
		fmt.Printf("video frames shown: %d\n", st.FramesShown)
	}
	if st.AudioChunks > 0 {
		fmt.Printf("audio chunks: %d\n", st.AudioChunks)
	}
	if st.AuditProbes > 0 {
		fmt.Printf("integrity audit: %d probes, %d replies\n",
			st.AuditProbes, st.AuditReplies)
	}
	if st.MarksSeen > 0 {
		fmt.Printf("e2e tracing: %d marks, %d acks\n",
			st.MarksSeen, st.MarkAcksSent)
	}
	if st.CacheKB > 0 {
		fmt.Printf("payload cache: %d KB granted, %d stores, %d paints, %d held (%d bytes), %d misses\n",
			st.CacheKB, st.CacheStored, st.CachePainted, st.CacheEntries, st.CacheBytes, st.CacheMissReports)
	}
	if st.ReattachAttempts > 0 {
		fmt.Printf("reattach: %d attempts, %d warm resumes, %d cold fallbacks, %d busy refusals, %d bytes saved by cache replays\n",
			st.ReattachAttempts, st.WarmResumes, st.ColdFallbacks, st.BusyRejections, st.CacheSavedBytes)
	}
}
