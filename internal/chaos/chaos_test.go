package chaos

import (
	"os"
	"strconv"
	"testing"

	"thinc/internal/overload"
	"thinc/internal/testutil"
)

// TestChaosSuiteConverges runs the standard schedules: every ladder
// rung pinned in turn plus the adaptive environments, each under a
// seeded fault storm, and asserts the convergence oracle — the client
// framebuffer ends byte-identical to the server screen.
func TestChaosSuiteConverges(t *testing.T) {
	testutil.CheckGoroutines(t)
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(s)
			if err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			t.Log(res)
			if !res.Converged {
				t.Fatalf("framebuffers did not converge: first mismatch at pixel %d (%s)",
					res.MismatchAt, res)
			}
			if !s.Adaptive && s.Rung > 0 && res.MaxRungSeen < s.Rung {
				t.Fatalf("pinned rung %d never observed at client (max %d)", s.Rung, res.MaxRungSeen)
			}
			if s.Name == "modem-adaptive-ladder" && res.OverloadUps < 1 {
				t.Fatalf("narrow link never escalated the ladder: %s", res)
			}
			// E2E tracing health: the storm delivered display traffic,
			// so marks must have flowed, and the loop must not end
			// silently dead — acks must have come back.
			if res.E2EMarks == 0 {
				t.Errorf("no TIME_MARKs sent during the storm: %s", res)
			}
			if res.E2EAcks == 0 {
				t.Errorf("e2e loop silently dead: marks=%d but no acks (%s)",
					res.E2EMarks, res)
			}
			if s.Viewers > 0 {
				if len(res.ViewerMismatches) != s.Viewers {
					t.Fatalf("%d of %d viewers attached: %s",
						len(res.ViewerMismatches), s.Viewers, res)
				}
				for i, at := range res.ViewerMismatches {
					if at != -1 {
						t.Errorf("viewer %d first mismatch at pixel %d, want -1", i, at)
					}
				}
				if !s.Adaptive {
					// The mixed-rung set really was mixed: each viewer
					// observed its pinned rung i % NumRungs.
					for i, r := range res.ViewerMaxRungs {
						if want := i % overload.NumRungs; r < want {
							t.Errorf("viewer %d max rung %d, want >= %d (pinned)", i, r, want)
						}
					}
				}
			}
		})
	}
}

// TestChaosSoak is the long-haul randomized mode behind `make soak`:
// THINC_CHAOS_SOAK=N runs N derived schedules. Unset, it's skipped.
func TestChaosSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	env := os.Getenv("THINC_CHAOS_SOAK")
	if env == "" {
		t.Skip("set THINC_CHAOS_SOAK=<n> to run the soak")
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		t.Fatalf("THINC_CHAOS_SOAK=%q is not a positive integer", env)
	}
	seed := int64(1)
	if s := os.Getenv("THINC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("THINC_CHAOS_SEED=%q is not an integer", s)
		}
		seed = v
	}
	for _, s := range SoakSchedules(n, seed) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(s)
			if err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			t.Log(res)
			if !res.Converged {
				t.Fatalf("framebuffers did not converge: first mismatch at pixel %d (%s)",
					res.MismatchAt, res)
			}
		})
	}
}

// checkCorruption applies the silent-corruption oracle to one result:
// the run must converge byte-identical, every injected divergence must
// be detected and healed through the audit, and — when few tiles
// diverge — healed by targeted repair alone, with no resync of any
// kind and no reconnect. The broad-damage schedules must instead climb
// the escalation ladder to a forced resync.
func checkCorruption(t *testing.T, res CorruptResult) {
	t.Helper()
	t.Log(res)
	s := res.Schedule
	if !res.Converged {
		t.Fatalf("silent corruption was not healed: first mismatch at pixel %d (%s)",
			res.MismatchAt, res)
	}
	if res.Flips == 0 {
		t.Fatal("corrupter never flipped a bit; the schedule proved nothing")
	}
	if res.Probes == 0 || res.Replies == 0 {
		t.Fatalf("no audit traffic: %s", res)
	}
	if res.Mismatches == 0 {
		t.Fatalf("injected divergence was never detected: %s", res)
	}
	if res.Reconnects != 0 {
		t.Errorf("silent corruption caused %d reconnects; it must be invisible to the transport", res.Reconnects)
	}
	if res.SlowResyncs != 0 {
		t.Errorf("slow-client resyncs fired (%d) during a corruption run", res.SlowResyncs)
	}
	if s.Escalate {
		if res.Sweeps < 1 || res.Resyncs < 1 {
			t.Errorf("broad damage (%d tiles) did not escalate: sweeps=%d resyncs=%d",
				s.Tiles, res.Sweeps, res.Resyncs)
		}
		return
	}
	if res.Resyncs != 0 {
		t.Errorf("%d divergent tiles escalated to %d full resyncs; targeted repair must suffice",
			s.Tiles, res.Resyncs)
	}
	if res.RepairedTiles < s.Tiles {
		t.Errorf("repaired %d tiles, want >= %d (every corrupted tile)",
			res.RepairedTiles, s.Tiles)
	}
	if res.RepairedBytes < s.Tiles*16*16*4 {
		t.Errorf("repaired %d bytes, want >= %d", res.RepairedBytes, s.Tiles*16*16*4)
	}
}

// TestChaosCorruptionSuite runs the silent-corruption schedules: bit
// flips inside well-framed payloads that survive decode and can only
// be caught by the wire-v4 integrity audit.
func TestChaosCorruptionSuite(t *testing.T) {
	testutil.CheckGoroutines(t)
	if testing.Short() {
		t.Skip("corruption suite is seconds-long; skipped in -short")
	}
	for _, s := range CorruptionSuite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunCorruption(s)
			if err != nil {
				t.Fatalf("corruption run failed: %v", err)
			}
			checkCorruption(t, res)
		})
	}
}

// TestChaosCacheDesync runs the wire-v6 cache-desync schedules: bit
// flips inside CACHE_PAINT digests and CACHE_STORE payloads that the
// miss protocol must detect at apply time and heal by
// forget-and-repaint, with zero framebuffer divergence, no reconnect,
// and a cache that still hits after the storm.
func TestChaosCacheDesync(t *testing.T) {
	testutil.CheckGoroutines(t)
	if testing.Short() {
		t.Skip("cache-desync suite is seconds-long; skipped in -short")
	}
	for _, s := range CacheCorruptionSuite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunCacheCorruption(s)
			if err != nil {
				t.Fatalf("cache-desync run failed: %v", err)
			}
			t.Log(res)
			if !res.Converged {
				t.Fatalf("cache desync was not healed: first mismatch at pixel %d (%s)",
					res.MismatchAt, res)
			}
			if res.Flips == 0 {
				t.Fatal("corrupter never flipped a bit; the schedule proved nothing")
			}
			if res.Grants < 1 {
				t.Fatalf("server never granted a cache: %s", res)
			}
			want := s.Repeats + s.Fresh
			if res.MissReports < want {
				t.Errorf("client reported %d cache misses, want >= %d (every corrupted delivery)",
					res.MissReports, want)
			}
			if res.MissRepairs < want {
				t.Errorf("server healed %d cache misses, want >= %d", res.MissRepairs, want)
			}
			if res.Stored < s.Bank {
				t.Errorf("client retained %d payloads, want >= %d (the bank)", res.Stored, s.Bank)
			}
			if s.Repeats > 0 && res.Painted < s.Repeats {
				t.Errorf("post-storm repaints hit the cache %d times, want >= %d; the storm poisoned the store",
					res.Painted, s.Repeats)
			}
			if res.Reconnects != 0 {
				t.Errorf("cache desync caused %d reconnects; healing must stay in-protocol", res.Reconnects)
			}
		})
	}
}

// TestChaosReattachSuite runs the wire-v7 reattach-lifecycle schedules:
// warm resumes that must carry content missed while detached, an epoch
// desync from a simulated client reboot, transports cut inside the warm
// resync's CACHE_STORE wave, and a reattach storm against a small
// admission budget. Every run must end byte-identical.
func TestChaosReattachSuite(t *testing.T) {
	testutil.CheckGoroutines(t)
	if testing.Short() {
		t.Skip("reattach suite is seconds-long; skipped in -short")
	}
	for _, s := range ReattachSuite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunReattach(s)
			if err != nil {
				t.Fatalf("reattach run failed: %v", err)
			}
			t.Log(res)
			if !res.Converged {
				t.Fatalf("framebuffers did not converge: first mismatch at pixel %d (%s)",
					res.MismatchAt, res)
			}
			switch s.Mode {
			case ReattachWarm:
				if res.WarmResumes != s.Cycles || res.ColdFallbacks != 0 {
					t.Errorf("warm cycles resumed warm %d/%d times (cold fallbacks %d): %s",
						res.WarmResumes, s.Cycles, res.ColdFallbacks, res)
				}
				if res.WarmReattaches != s.Cycles || res.ColdReattaches != 0 {
					t.Errorf("server verdicts disagree: %s", res)
				}
				if res.Painted < 1 {
					t.Errorf("warm resumes never hit the cache: %s", res)
				}
			case ReattachRestart:
				// The reboot dropped the store, so the resume carries no
				// epoch claim and must renegotiate cold — and the cache
				// must come back to life under the new epoch.
				if res.WarmResumes != 0 || res.ColdReattaches < 1 {
					t.Errorf("rebooted client resumed warm: %s", res)
				}
				if res.Stored < 4 {
					t.Errorf("cache never came back after the cold resume: %s", res)
				}
			case ReattachMidStore:
				// Wherever the cuts landed, the final clean resume healed;
				// the populate bank plus resync stores must have survived.
				if res.Stored < 3 {
					t.Errorf("no stores survived the mid-store cuts: %s", res)
				}
				if res.Reattaches < s.Cycles {
					t.Errorf("only %d reattaches across %d faulted cycles: %s",
						res.Reattaches, s.Cycles, res)
				}
			case ReattachStorm:
				if res.PeakInFlight > s.Budget {
					t.Errorf("gate exceeded budget: peak %d > %d (%s)",
						res.PeakInFlight, s.Budget, res)
				}
				if res.Rejected == 0 || res.BusyRejections == 0 {
					t.Errorf("a %d-wide storm against budget %d never tripped the gate: %s",
						s.Clients, s.Budget, res)
				}
			}
		})
	}
}

// TestChaosCorruptionSoak is the randomized long-haul corruption pass
// behind `make soak`, sharing THINC_CHAOS_SOAK with the fault soak.
func TestChaosCorruptionSoak(t *testing.T) {
	testutil.CheckGoroutines(t)
	env := os.Getenv("THINC_CHAOS_SOAK")
	if env == "" {
		t.Skip("set THINC_CHAOS_SOAK=<n> to run the soak")
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		t.Fatalf("THINC_CHAOS_SOAK=%q is not a positive integer", env)
	}
	seed := int64(1)
	if s := os.Getenv("THINC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("THINC_CHAOS_SEED=%q is not an integer", s)
		}
		seed = v
	}
	for _, s := range SoakCorruptionSchedules(n, seed) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunCorruption(s)
			if err != nil {
				t.Fatalf("corruption run failed: %v", err)
			}
			checkCorruption(t, res)
		})
	}
}

// TestSoakCorruptionSchedulesDeterministic guards replayability of the
// corruption soak derivation, and that both schedule classes appear.
func TestSoakCorruptionSchedulesDeterministic(t *testing.T) {
	a := SoakCorruptionSchedules(8, 7)
	b := SoakCorruptionSchedules(8, 7)
	escalate := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Escalate {
			escalate++
			if a[i].Tiles <= 4 {
				t.Fatalf("escalation schedule %d corrupts only %d tiles", i, a[i].Tiles)
			}
		} else if a[i].Tiles < 1 || a[i].Tiles > 4 {
			t.Fatalf("targeted schedule %d corrupts %d tiles, want 1..4", i, a[i].Tiles)
		}
	}
	if escalate == 0 {
		t.Fatal("no escalation schedules in an 8-draw sample")
	}
}

// TestSoakSchedulesDeterministic guards replayability: the same base
// seed must derive the same schedules.
func TestSoakSchedulesDeterministic(t *testing.T) {
	a := SoakSchedules(16, 7)
	b := SoakSchedules(16, 7)
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("lengths %d/%d, want 16", len(a), len(b))
	}
	rungs := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if !a[i].Adaptive {
			rungs[a[i].Rung] = true
		}
		if a[i].Rung >= overload.NumRungs {
			t.Fatalf("schedule %d rung %d out of range", i, a[i].Rung)
		}
	}
	if len(rungs) == 0 {
		t.Fatal("no pinned-rung schedules in a 16-draw sample")
	}
}
