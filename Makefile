GO ?= go
GOFMT ?= gofmt
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

.PHONY: check fmt build vet test bench-test race race-sharded harness-lint fault fuzz paranoid bench-telemetry gcsched-smoke serve-smoke trace-smoke scale-smoke durable-smoke nbd-smoke nbd-mount-smoke

## check: full local gate — gofmt, vet, build, race-enabled test suite, the
## sharded-engine suite pinned to GOMAXPROCS=4, a short fuzz smoke of
## every target on top of the checked-in corpora, the background-GC
## tail gate, the durability gate (crash-point sweep plus SIGKILL
## restart), end-to-end boots of the network service (plain, traced,
## and over the NBD frontend), the bench module's own vet and tests, and
## the experiment-table lint.
check: fmt vet build bench-test race race-sharded harness-lint fuzz gcsched-smoke durable-smoke serve-smoke trace-smoke nbd-smoke

## fmt: gofmt must list no file of the root module or of bench/ (a
## directory walk, so bench/ is covered though it is a module of its
## own).
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "fmt FAIL: gofmt -l lists:"; echo "$$out"; \
		exit 1; \
	fi
	@echo "fmt OK"

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
## result. Also lints that the device model stays Run-only: no
## chunkJob channel in non-test internal/prototype and no goroutine in
## engine.go; that internal/prototype has one RAID-5 sink — a second
## engine cannot grow back beside the one everybody serves; that the two
## frontends share one connection runtime: one accept loop, one reply
## writer; that no all-shard lock grows back on the served path: no
## simulator Recorder there, no lockAll; that the server reads request
## frames only into bufpool buffers, never through package wire; and
## that writes reach the engine one way: group commit (WriteBatchTimed),
## no unbatched flag, no direct WriteTimed; that the server sets no
## aggregation deadline of its own: no gather, no -batch-us; and that
## boot loads no volume back into memory: a volume's bytes live in its
## one store, vol-N.dat with a data dir, and no `ReadAt(v.data` fills a
## copy.
race-sharded:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/server ./internal/nbd ./internal/prototype ./internal/serve
	@if ls internal/prototype/*.go | grep -v _test.go | xargs grep -nF 'chan chunkJob' || \
		grep -nE '(^|[;{])[[:space:]]*go[[:space:]]+[A-Za-z_(]' internal/prototype/engine.go; then \
		echo "race-sharded FAIL: the device model grew a queue channel or a goroutine — it is Run-only arithmetic on the virtual clock"; \
		exit 1; \
	fi
	@n=$$(ls internal/prototype/*.go | grep -v _test.go | xargs cat | grep -cF 'Sink:'); \
	if [ "$$n" -gt 1 ]; then \
		echo "race-sharded FAIL: $$n occurrences of 'Sink:' in non-test internal/prototype — one RAID-5 sink"; \
		exit 1; \
	fi
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
	@if ls internal/server/*.go | grep -v _test.go | xargs grep -nE 'quiesceYields|gather\(|flushGen|BatchTimeout' || \
		ls cmd/adaptserve/*.go | grep -v _test.go | xargs grep -nF 'batch-us'; then \
		echo "race-sharded FAIL: the server grew a second aggregation deadline — a group commit is what arrived during the last one, and the store's SLA window is the only deadline"; \
		exit 1; \
	fi
	@if ls internal/server/*.go | grep -v _test.go | xargs grep -nF 'ReadAt(v.data'; then \
		echo "race-sharded FAIL: non-test internal/server loads a volume back into memory — boot only sizes vol-N.dat, and a READ preads it"; \
		exit 1; \
	fi
	@for pat in 'Recorder' 'lockAll'; do \
		if ls internal/prototype/*.go internal/server/*.go internal/serve/*.go | grep -v _test.go | xargs grep -nF "$$pat"; then \
			echo "race-sharded FAIL: '$$pat' in non-test internal/prototype + internal/server + internal/serve — shard locks are taken one at a time, the recorder is simulator-only"; \
			exit 1; \
		fi; \
	done
	@echo "race-sharded OK"

## harness-lint: the experiment table exists once. adaptbench loops
## over the harness's registry (harness.Experiments) and calls no
## experiment function itself, and non-test internal/harness writes the
## YCSB-A trace config once (Scale.ycsb) besides DiffTrace's. The
## prototype has one client loop on one clock: prototype.Run and its
## fault injector (internal/prototype/prototype.go, fault.go) start no
## goroutine and read or sleep on no wall clock, and internal/harness
## keeps no private closed-loop model of its own. A sender waits for its
## queue slot: no timed send attempts, timeouts or retry budgets in
## non-test internal/prototype or the root package. Settings no caller
## sets stay constants: no MicroSlice/QueueHighFill/VetoUrgency in
## non-test internal/gcsched, and no GC watermark field in lss.Config —
## the store derives them from its group count. The public API, the
## harness and adaptserve build one store: adaptserve imports no
## benchmark package (internal/harness), segment sizing (a / 128 or
## / 256 of capacity) lives only in non-test internal/lss
## (lss.Config.GeometryDefaults), and ADAPT's 2048-block sampling rule
## only in non-test internal/adaptcore (adaptcore.New).
harness-lint:
	@if ls cmd/adaptbench/*.go | grep -v _test.go | xargs grep -nE 'harness\.(Fig[0-9]|Exp[A-Z])'; then \
		echo "harness-lint FAIL: cmd/adaptbench calls an experiment directly — add a row to harness.Experiments instead"; \
		exit 1; \
	fi
	@n=$$(ls internal/harness/*.go | grep -v _test.go | xargs cat | grep -cF 'workload.YCSBConfig{'); \
	if [ "$$n" -gt 2 ]; then \
		echo "harness-lint FAIL: $$n workload.YCSBConfig{ literals in non-test internal/harness — synthesize YCSB-A through Scale.ycsb"; \
		exit 1; \
	fi
	@if grep -nE '(^|[^[:alnum:]_.])go +(func|[[:alpha:]_][[:alnum:]_.]*)\(' internal/prototype/prototype.go internal/prototype/fault.go; then \
		echo "harness-lint FAIL: prototype.Run starts a goroutine — its clients are one event loop on the virtual clock"; \
		exit 1; \
	fi
	@if grep -nE 'time\.(Now|Sleep)\(' internal/prototype/prototype.go internal/prototype/fault.go; then \
		echo "harness-lint FAIL: prototype.Run reads or sleeps on the wall clock — use the device array's virtual clock"; \
		exit 1; \
	fi
	@if ls internal/harness/*.go | grep -v _test.go | xargs grep -nE 'gcModel|runGCSchedModel'; then \
		echo "harness-lint FAIL: a private gcsched model in internal/harness — the model rows are prototype.Run calls"; \
		exit 1; \
	fi
	@if ls internal/prototype/*.go *.go | grep -v _test.go | xargs grep -nE 'attempts\(|QueueTimeout|RetryMax'; then \
		echo "harness-lint FAIL: a queue-send retry model in non-test internal/prototype or the root package — a sender waits for its slot"; \
		exit 1; \
	fi
	@if ls internal/gcsched/*.go | grep -v _test.go | xargs grep -nE 'MicroSlice|QueueHighFill|VetoUrgency'; then \
		echo "harness-lint FAIL: a pacer constant became a gcsched.Config field again — nobody sets it"; \
		exit 1; \
	fi
	@if ls internal/lss/*.go | grep -v _test.go | xargs grep -nE '^[[:space:]]+([[:alnum:]_]+,[[:space:]]*)*(GCLowWater|GCHighWater|GCEmergencyFloor)([[:space:],]|$$)'; then \
		echo "harness-lint FAIL: a GC watermark became an lss.Config field again — the store derives them from its group count (lss watermarks)"; \
		exit 1; \
	fi
	@if ls cmd/adaptserve/*.go | grep -v _test.go | xargs grep -nF '"adapt/internal/harness"'; then \
		echo "harness-lint FAIL: cmd/adaptserve imports internal/harness — build the store with lss.Config.GeometryDefaults and the policy with placement.Build"; \
		exit 1; \
	fi
	@if find . -name '*.go' ! -name '*_test.go' ! -path './internal/lss/*' | xargs grep -nE '(^|[^/])/ *(128|256)([^0-9]|$$)'; then \
		echo "harness-lint FAIL: segment-size arithmetic outside internal/lss — lss.Config.GeometryDefaults derives SegmentChunks"; \
		exit 1; \
	fi
	@if find . -name '*.go' ! -name '*_test.go' ! -path './internal/adaptcore/*' | xargs grep -nE '2048 */'; then \
		echo "harness-lint FAIL: a copy of ADAPT's sampling rule outside internal/adaptcore — adaptcore.New derives SampleRate"; \
		exit 1; \
	fi
	@echo "harness-lint OK"

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

## gcsched-smoke: the tail-latency-aware GC gate. On prototype.Run's
## virtual clock (the real engine, paced by the real gcsched pacer),
## background-paced GC must cut the client p999 by >=30% against the
## synchronous watermark baseline with write amplification within 2%,
## for every placement policy. Also lints the store-configuration API: lss.Store grows no
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
## the relaxed-sync sweep, the commit-interleaving sweep at stride 1
## (the served schedule, a log commit after every op, cut at every
## syscall of every commit: between pre-free syncs and truncates too),
## the flush schedule (file syncs per seal/free/reopen counted through
## the FS seam: d + k per commit of k frees over d dirty files, no
## create, unlink or directory sync), the no-fsync-under-the-engine-lock
## ledger row, the durable engine/server round trips, and the SIGKILL
## restart of a race-built adaptserve over both protocols. The
## packages run whole and without -short, so every sweep runs at stride
## 1 and a renamed test cannot drop out of the gate.
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
