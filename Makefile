GO ?= go

.PHONY: all build vet test race check cover bench-smoke bench-load-smoke fuzz-smoke golden-regen soak

all: check

build:
	$(GO) build ./...

# go vet, plus a formatting gate: any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet race

# Coverage gate: per-package statement coverage must stay at or above
# the committed floors (coverage_floors.txt). -short skips the
# seconds-long chaos schedules — they have their own CI job and their
# wall-clock deadlines are unreliable under atomic instrumentation.
# The floors are checked on the written profile even when a test
# fails; the target then exits with the test status.
cover:
	@status=0; \
	$(GO) test -short ./... -coverprofile=coverage.out -covermode=atomic || status=$$?; \
	$(GO) run ./cmd/covercheck -profile coverage.out -floors coverage_floors.txt && exit $$status

# Chaos soak: randomized fault schedules PLUS randomized
# silent-corruption schedules against a live server/client pair under
# the race detector, each ending in the framebuffer-convergence oracle
# (see docs/ROBUSTNESS.md). -run 'TestChaos' picks up both families
# (TestChaosSoak and TestChaosCorruptionSoak). Every schedule logs its
# seed, so a failure replays exactly; override with THINC_CHAOS_SEED.
# Bounded wall-clock via the test timeout. The whole output is also
# kept in soak.log, so a failure's schedule and seed survive a cut
# terminal or CI log; pipefail makes the target fail with the test, not
# succeed with tee.
soak: SHELL := bash
soak: .SHELLFLAGS := -o pipefail -c
soak:
	THINC_CHAOS_SOAK=100 $(GO) test ./internal/chaos/ -race -count=1 -timeout 15m -run 'TestChaos' 2>&1 | tee soak.log

# Encode fast-path smoke: the zero-allocation assertions plus one
# iteration of every wire benchmark, cheap enough for CI. The *ZeroAlloc
# tests fail if the flush path regresses to allocating. The fan-out
# benchmark rides along: B/op staying flat from viewers=1 to viewers=8
# is the translate-once/deliver-N contract. So does the §4 aggregation
# benchmark (an 80-glyph run, a 256-scanline image) with the allocation
# test that pins absorption as linear in the run, not quadratic. And so
# does the §5 pacing contract (TestPush*, both connection drivers):
# first damage after an idle interval leaves at once, a sustained stream
# stays within FlushBudget emitted bytes per FlushInterval, a 1024x768
# PNG initial sync leaves in one pass, an idle connection runs no pass
# and holds no timer. The video overlay kernel (a 352x240 frame
# scaled to 1024x768) runs once, with the test that pins its allocations
# per call to at most one and 16 KB. The PNG writer encodes a web-page
# photo band with the test that pins a steady-state encode into a sized
# buffer to at most one allocation, and the tile fill paints a page-sized
# 8x8-pattern background.
bench-smoke:
	$(GO) test ./internal/wire/ -run 'ZeroAlloc|TestPayloadSizeMatchesAppend|TestBatch' -count=1
	$(GO) test ./internal/wire/ -run '^$$' -bench . -benchtime=1x -count=1
	$(GO) test ./internal/core/ -run '^$$' -bench 'BenchmarkTranslateFanout|BenchmarkAggregateRun' -benchtime=100x -count=1
	$(GO) test ./internal/core/ -run 'TestCacheHotPathZeroAlloc|TestAggregateRunAllocatesLinearly' -count=1
	$(GO) test ./internal/fb/ -run 'TestDigestHotPathZeroAlloc|TestOverlayYV12Allocs' -count=1
	$(GO) test ./internal/fb/ -run '^$$' -bench 'BenchmarkTileDigest|BenchmarkOverlayYV12|BenchmarkFillTile' -benchtime=100x -count=1
	$(GO) test ./internal/compress/ -run 'TestEncodePNGSteadyStateAllocs' -count=1
	$(GO) test ./internal/compress/ -run '^$$' -bench 'BenchmarkEncodePNGWebBlock' -benchtime=100x -count=1
	$(GO) test ./internal/server/ -run 'TestPush' -count=1

# Multi-session load smoke: the sharded delivery core hosting 1000
# fully event-driven sessions under the race detector, plus the smaller
# harness tests (-short keeps the unguarded smoke at 60 sessions). The
# run writes and validates the same self-checking report as the
# committed 10k benchmark (BENCH_pr10.json, from `go run ./cmd/thinc-load`):
# zero dead sessions, O(shards) goroutines, bounded heap per idle
# session, live heartbeat and damage-to-glass mark loops.
bench-load-smoke:
	THINC_LOAD_SMOKE=1 $(GO) test ./internal/loadsim/ -race -short -count=1 -timeout 15m

# Fuzz smoke: ~30s of coverage-guided fuzzing per wire decoder target,
# on top of the committed seed corpus (which always runs as part of
# `make test`). Every payload has a fixed layout, so a truncated or
# over-long message must error and an accepted hello must re-marshal to
# exactly the bytes it was read from; the decoders get continuous
# adversarial input, not just the frozen seeds.
# FuzzFillBitmap checks the byte-wise stipple kernel every BITMAP is
# painted with against the per-pixel oracle it replaced, and
# FuzzOverlayYV12 does the same for the video overlay kernel.
# FuzzEncodePNG checks the PNG writer every RAW update is compressed
# with against image/png, byte for byte. FuzzDecode feeds every RAW
# codec's client decoder arbitrary payloads: no panic, an accepted
# payload is exactly its block, and every encoding decodes back.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzReadMessage -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzVideoFrame -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzAudioData -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzCacheStore -fuzztime 30s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzAuditReply -fuzztime 30s
	$(GO) test ./internal/fb/ -run '^$$' -fuzz FuzzFillBitmap -fuzztime 30s
	$(GO) test ./internal/fb/ -run '^$$' -fuzz FuzzOverlayYV12 -fuzztime 30s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz FuzzEncodePNG -fuzztime 30s
	$(GO) test ./internal/compress/ -run '^$$' -fuzz FuzzDecode -fuzztime 30s

# Regenerate the golden wire vectors under internal/wire/testdata/
# after a deliberate protocol change: the frozen-vector tests rewrite
# their hex files when run with -update, then the full golden suite
# re-runs to prove the regenerated vectors decode and round-trip.
# Review the diff — a vector that changed for a type you did not touch
# means an accidental wire break.
golden-regen:
	$(GO) test ./internal/wire/ -run Golden -update -count=1
	$(GO) test ./internal/wire/ -run Golden -count=1
