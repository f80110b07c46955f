GO ?= go
FUZZTIME ?= 10s

# Every native fuzz target, as pkg:Target pairs (`go test -fuzz` accepts
# only one matching target per invocation, so `fuzz` loops over these).
FUZZ_TARGETS := \
	./internal/lss:FuzzStoreOps \
	./internal/lss:FuzzRecover \
	./internal/checker:FuzzOracleOps \
	./internal/fault:FuzzPlanFire \
	./internal/fault:FuzzBackoffDelay \
	./internal/trace:FuzzReadBinary \
	./internal/trace:FuzzParseMSR \
	./internal/trace:FuzzParseAli \
	./internal/trace:FuzzParseTencent \
	./internal/server/wire:FuzzWireDecode \
	./internal/segfile:FuzzSegfileRecover \
	./internal/nbd:FuzzNBDHandshake \
	./internal/nbd:FuzzNBDRequest

.PHONY: check build vet test bench-test race race-sharded fault fuzz paranoid bench-telemetry gcsched-smoke serve-smoke trace-smoke scale-smoke durable-smoke nbd-smoke nbd-mount-smoke

## check: full local gate — vet, build, race-enabled test suite, the
## sharded-engine suite pinned to GOMAXPROCS=4, a short fuzz smoke of
## every target on top of the checked-in corpora, the background-GC
## tail gate, the durability gate (crash-point sweep plus SIGKILL
## restart), end-to-end boots of the network service (plain, traced,
## and over the NBD frontend), and the bench module's own vet and tests.
check: vet build bench-test race race-sharded fuzz gcsched-smoke durable-smoke serve-smoke trace-smoke nbd-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## bench-test: bench/ is a module of its own, so `./...` from the root
## never compiles it — yet it implements lss.DurableLog, lss.Policy,
## prototype.Ingest and server.VolumeBackend. Vet and test it here so an
## interface change breaks the build, not the perf gate.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

## race-sharded: the engine, its server e2e, the NBD frontend (same
## group commit, same connection runtime) and the assembled stack under
## the race detector with GOMAXPROCS pinned to 4, so leader/follower
## group commit and cross-shard GC gating actually interleave even when
## the ambient GOMAXPROCS is 1. The packages run whole: a -run pattern
## goes vacuous the day a test is renamed. -count=1 because the test
## cache does not key on GOMAXPROCS and would replay `make race`'s
## result. Also lints that internal/prototype models the array once:
## one place that makes device queues, one RAID-5 sink — a second engine
## cannot grow back beside the one everybody serves; that the two
## frontends share one connection runtime: one accept loop, one reply
## writer; that no all-shard lock grows back on the served path: no
## simulator Recorder there, no lockAll; that the server reads request
## frames only into bufpool buffers, never through package wire; and
## that writes reach the engine one way: group commit (WriteBatchTimed),
## no unbatched flag, no direct WriteTimed.
race-sharded:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/server ./internal/nbd ./internal/prototype ./internal/serve
	@for pat in 'make(chan chunkJob' 'Sink:'; do \
		n=$$(ls internal/prototype/*.go | grep -v _test.go | xargs cat | grep -cF "$$pat"); \
		if [ "$$n" -gt 1 ]; then \
			echo "race-sharded FAIL: $$n occurrences of '$$pat' in non-test internal/prototype — one device array, one sink"; \
			exit 1; \
		fi; \
	done
	@for pat in '.Accept()' 'SetWriteDeadline('; do \
		n=$$(ls internal/server/*.go internal/nbd/*.go | grep -v _test.go | xargs cat | grep -cF "$$pat"); \
		if [ "$$n" -gt 1 ]; then \
			echo "race-sharded FAIL: $$n occurrences of '$$pat' in non-test internal/server + internal/nbd — one connection runtime (internal/server/conn.go)"; \
			exit 1; \
		fi; \
	done
	@if ls internal/server/*.go | grep -v _test.go | xargs grep -nE 'wire\.Read(Frame|Request)\('; then \
		echo "race-sharded FAIL: non-test internal/server reads a request frame through package wire — server frames come only from bufpool"; \
		exit 1; \
	fi
	@if ls internal/server/*.go internal/server/wire/*.go | grep -v _test.go | xargs grep -nE 'FlagNoBatch|noBatch|\.WriteTimed\('; then \
		echo "race-sharded FAIL: non-test internal/server has a second write path — writes reach the engine only through group commit (WriteBatchTimed)"; \
		exit 1; \
	fi
	@for pat in 'Recorder' 'lockAll'; do \
		if ls internal/prototype/*.go internal/server/*.go internal/serve/*.go | grep -v _test.go | xargs grep -nF "$$pat"; then \
			echo "race-sharded FAIL: '$$pat' in non-test internal/prototype + internal/server + internal/serve — shard locks are taken one at a time, the recorder is simulator-only"; \
			exit 1; \
		fi; \
	done
	@echo "race-sharded OK"

## fuzz: give every native fuzz target a real exploration budget
## (FUZZTIME per target, default 10s) beyond the committed seed corpora.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run "^$$name$$" -fuzz "^$$name$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

## paranoid: the oracle-backed correctness suite under the race detector —
## model-based differential over all six policies, metamorphic relations,
## the crash-point recovery sweep, and the public Paranoid mode.
paranoid:
	$(GO) test -race -run 'Paranoid|Oracle|Mirror|Differential|Reordered|SeedShift|VictimSequence|ExpectedRecovery|DoubleFault|RebuildInterrupted' \
		. ./internal/checker ./internal/harness ./internal/blockdev ./internal/lss

## fault: fault-injection / degraded-mode suite under the race detector —
## failure schedules, XOR reconstruction, rebuild, retry/backoff, and the
## public-API fault path. The two packages that are the fault path run
## whole (a -run pattern silently skips whatever is not named to match
## it); the pattern picks the fault cases out of the slow packages only.
fault:
	$(GO) test -race ./internal/fault ./internal/prototype
	$(GO) test -race -run 'Fault|Degraded|Rebuild|Backoff|MTBF' \
		. ./internal/blockdev ./internal/harness ./internal/lss

## bench-telemetry: verify the disabled-telemetry hot path stays free.
bench-telemetry:
	$(GO) test -run '^$$' -bench BenchmarkTelemetryHotPath -benchtime 500000x -count 3 .

## gcsched-smoke: the tail-latency-aware GC gate. On the deterministic
## virtual-clock model (real stores, real pacer), background-paced GC
## must cut the client p999 by >=30% against the synchronous watermark
## baseline with write amplification within 2%, for every placement
## policy. Also lints the store-configuration API: lss.Store grows no
## new Set* setters — runtime changes go through Deps and Reconfigure.
gcsched-smoke:
	$(GO) test -run TestGCSchedModelAcceptance ./internal/harness
	@if grep -nE '^func \(s \*Store\) Set[A-Z]' internal/lss/*.go; then \
		echo "gcsched-smoke FAIL: lss.Store setters are banned — route runtime changes through Deps/Reconfigure"; \
		exit 1; \
	fi
	@echo "gcsched-smoke OK"

## durable-smoke: the durability gate under the race detector — the
## exhaustive crash-point sweep (kill the filesystem at every syscall
## boundary, recovery must match the acked-transition oracle exactly),
## the relaxed-sync sweep, the steady-state flush schedule (file syncs
## per seal/free/reopen counted through the FS seam, no create, unlink
## or directory sync), the durable engine/server round trips, and the
## SIGKILL restart of a race-built adaptserve over both protocols. The
## packages run whole, so a renamed test cannot drop out of the gate.
durable-smoke:
	$(GO) test -race ./internal/segfile ./internal/prototype ./internal/server ./internal/serve ./cmd/adaptserve
	@echo "durable-smoke OK"

## serve-smoke, trace-smoke, scale-smoke, nbd-mount-smoke: one
## out-of-process gate each from cmd/adaptserve/e2e_test.go, where each
## test's comment says what it asserts. The test builds the binaries,
## boots the real adaptserve on kernel-picked loopback ports and kills
## it on every exit path. The last two are not part of `check`: they
## SKIP (shown by -v) below 4 CPUs, and without root + the nbd kernel
## module + nbd-client + fio.
serve-smoke:
	$(GO) test -count=1 -run '^TestServeSmoke$$' ./cmd/adaptserve

trace-smoke:
	$(GO) test -count=1 -run '^TestTraceSmoke$$' ./cmd/adaptserve

scale-smoke:
	$(GO) test -count=1 -v -run '^TestScaleSmoke$$' ./cmd/adaptserve

nbd-mount-smoke:
	$(GO) test -count=1 -v -run '^TestNBDMountSmoke$$' ./cmd/adaptserve

## nbd-smoke: the NBD frontend gate under the race detector — the full
## internal/nbd suite (handshake, mixed-workload byte-exact readback,
## RMW property test, fail+rebuild mid-traffic) and cmd/adaptserve whole
## (SIGKILL restart over NBD; TestNBDSmoke's nbdload burst with
## unaligned writes and verify, nbd_* scrape and graceful drain).
nbd-smoke:
	$(GO) test -race -count=1 ./internal/nbd/... ./cmd/adaptserve
