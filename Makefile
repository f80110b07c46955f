GO ?= go
BENCH_DATE := $(shell date +%Y-%m-%d)
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

.PHONY: check build vet test bench-test race race-sharded fault fuzz paranoid bench-telemetry bench-snapshot gcsched-smoke serve-smoke trace-smoke scale-smoke durable-smoke nbd-smoke nbd-mount-smoke

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

## race-sharded: the engine and its server e2e under the race detector
## with GOMAXPROCS pinned to 4, so leader/follower group commit and
## cross-shard GC gating actually interleave even when the ambient
## GOMAXPROCS is 1. The packages run whole: a -run pattern goes vacuous
## the day a test is renamed. -count=1 because the test cache does not
## key on GOMAXPROCS and would replay `make race`'s result.
race-sharded:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/server ./internal/prototype

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
## public-API fault path.
fault:
	$(GO) test -race -run 'Fault|Degraded|Rebuild|Backoff|MTBF' \
		. ./internal/fault ./internal/blockdev ./internal/prototype ./internal/harness ./internal/lss

## bench-telemetry: verify the disabled-telemetry hot path stays free.
bench-telemetry:
	$(GO) test -run '^$$' -bench BenchmarkTelemetryHotPath -benchtime 500000x -count 3 .

## bench-snapshot: record the perf trajectory — Fig-8, ablation, fault, and
## victim-selection benchmarks with allocation stats, as test2json
## events in BENCH_<date>.json. Recover benchstat-compatible text with:
##   jq -r 'select(.Action=="output") | .Output' BENCH_<date>.json
bench-snapshot:
	{ printf '{"Action":"env","GOMAXPROCS":%d,"Date":"%s"}\n' "$$(nproc)" "$(BENCH_DATE)" && \
	  $(GO) run ./cmd/fscap && \
	  $(GO) test -json -run '^$$' -bench 'BenchmarkFig8WA|BenchmarkAblation|BenchmarkFault' -benchmem -benchtime 1x -count 1 . && \
	  $(GO) test -json -run '^$$' -bench BenchmarkGCVictimSelection -benchmem -benchtime 200x -count 1 -cpu 1,2,4,8 ./internal/lss && \
	  $(GO) test -json -run '^$$' -bench BenchmarkServerRoundtrip -benchmem -benchtime 2000x -count 1 -cpu 1,2,4,8 ./internal/server && \
	  $(GO) test -json -run '^$$' -bench BenchmarkTraceHotPath -benchmem -benchtime 1000000x -count 3 ./internal/server ; } \
	  > BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

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
## real SIGKILL process-restart e2e. The packages run whole, so a
## renamed test cannot drop out of the gate.
durable-smoke:
	$(GO) test -race ./internal/segfile ./internal/prototype ./internal/server
	@echo "durable-smoke OK"

## serve-smoke: boot the network service end-to-end — adaptserve on a
## loopback port, a short adaptload burst, a telemetry scrape, and a
## graceful SIGTERM drain.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/adaptserve ./cmd/adaptload; \
	$$tmp/adaptserve -addr 127.0.0.1:19750 -telemetry 127.0.0.1:19751 -service-us 0 > $$tmp/serve.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/adaptload -addr 127.0.0.1:19750 -tenants 4 -workers 4 -duration 2s > $$tmp/load.log 2>&1; \
	grep aggregate $$tmp/load.log; \
	awk '/^aggregate:/ { for (i = 2; i <= NF; i++) if ($$i == "ops/s" && $$(i-1) + 0 > 0) ok = 1 } END { exit !ok }' $$tmp/load.log; \
	curl -sf http://127.0.0.1:19751/metrics | grep -q srv_requests_total; \
	kill -TERM $$pid; wait $$pid; \
	grep -q '^final:' $$tmp/serve.log; \
	echo "serve-smoke OK"

## trace-smoke: boot the traced service end-to-end — adaptserve with
## request tracing on, an adaptload burst with client-forced exemplars
## and interleaved flushes, then assert /debug/trace serves attributed
## exemplars and the load report carries the per-stage breakdown.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/adaptserve ./cmd/adaptload; \
	$$tmp/adaptserve -addr 127.0.0.1:19760 -telemetry 127.0.0.1:19761 -service-us 0 -trace > $$tmp/serve.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/adaptload -addr 127.0.0.1:19760 -tenants 4 -workers 4 -duration 2s -trace-every 4 -flush-every 32 > $$tmp/load.log 2>&1; \
	grep aggregate $$tmp/load.log; \
	grep -q 'server stage latency' $$tmp/load.log; \
	curl -sf 'http://127.0.0.1:19761/debug/trace?k=8' > $$tmp/trace.jsonl; \
	test -s $$tmp/trace.jsonl; \
	grep -q '"cause":' $$tmp/trace.jsonl; \
	grep -q '"total_ns":' $$tmp/trace.jsonl; \
	curl -sf http://127.0.0.1:19761/metrics | grep -q srv_trace_exemplars_total; \
	kill -TERM $$pid; wait $$pid; \
	echo "trace-smoke OK"

## nbd-smoke: the NBD frontend gate — the full internal/nbd suite under
## the race detector (handshake, mixed-workload byte-exact readback,
## RMW property test, fail+rebuild mid-traffic, SIGKILL restart over
## NBD), then a real process boot: adaptserve with -nbd-addr, an
## nbdload burst with unaligned writes and end-of-run verify over the
## standard protocol, a telemetry scrape for the nbd_* families, and a
## graceful SIGTERM drain.
nbd-smoke:
	$(GO) test -race -count=1 ./internal/nbd/...
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/adaptserve ./cmd/nbdload; \
	$$tmp/adaptserve -addr 127.0.0.1:19780 -telemetry 127.0.0.1:19781 -nbd-addr 127.0.0.1:19782 -service-us 0 > $$tmp/serve.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/nbdload -addr 127.0.0.1:19782 -export vol0 -workers 4 -duration 2s -unaligned 0.5 -verify > $$tmp/load.log 2>&1; \
	grep aggregate $$tmp/load.log; \
	grep -q 'verify: all worker slices read back byte-identical' $$tmp/load.log; \
	curl -sf http://127.0.0.1:19781/metrics > $$tmp/metrics.txt; \
	grep -q nbd_requests_total $$tmp/metrics.txt; \
	grep -q nbd_handshakes_total $$tmp/metrics.txt; \
	grep -q nbd_rmw_writes_total $$tmp/metrics.txt; \
	kill -TERM $$pid; wait $$pid; \
	grep -q '^final:' $$tmp/serve.log; \
	echo "nbd-smoke OK"

## nbd-mount-smoke: opt-in kernel-attach gate — adaptserve with
## -nbd-addr, a real `nbd-client` attach to /dev/nbd*, an fio verify
## burst against the kernel block device, and a clean detach. Needs
## root, the nbd kernel module, and nbd-client + fio on PATH, so it is
## not part of `check`; it skips politely when the host can't run it.
nbd-mount-smoke:
	@set -e; \
	if ! command -v nbd-client >/dev/null 2>&1; then echo "nbd-mount-smoke SKIP (no nbd-client)"; exit 0; fi; \
	if ! command -v fio >/dev/null 2>&1; then echo "nbd-mount-smoke SKIP (no fio)"; exit 0; fi; \
	if [ "$$(id -u)" -ne 0 ]; then echo "nbd-mount-smoke SKIP (needs root)"; exit 0; fi; \
	if ! modprobe nbd 2>/dev/null && [ ! -b /dev/nbd0 ]; then echo "nbd-mount-smoke SKIP (no nbd kernel module)"; exit 0; fi; \
	tmp=$$(mktemp -d); dev=/dev/nbd0; \
	trap 'nbd-client -d $$dev 2>/dev/null || true; kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/adaptserve; \
	$$tmp/adaptserve -addr 127.0.0.1:19790 -telemetry '' -nbd-addr 127.0.0.1:19791 -service-us 0 > $$tmp/serve.log 2>&1 & pid=$$!; \
	sleep 1; \
	nbd-client -N vol0 127.0.0.1 19791 $$dev; \
	fio --name=nbdsmoke --filename=$$dev --rw=randrw --bs=4k --size=4M --io_size=8M \
		--direct=1 --verify=crc32c --do_verify=1 --output=$$tmp/fio.log; \
	nbd-client -d $$dev; \
	kill -TERM $$pid; wait $$pid; \
	echo "nbd-mount-smoke OK"

## scale-smoke: assert the sharded engine actually scales — boot
## adaptserve at 1 shard and at 4 shards, drive each with the same
## adaptload burst, and require the 4-shard aggregate throughput to be
## at least 1.5× the 1-shard run. Needs real cores to mean anything,
## so it skips on hosts with fewer than 4 CPUs.
scale-smoke:
	@set -e; \
	if [ "$$(nproc)" -lt 4 ]; then \
		echo "scale-smoke SKIP (need >=4 CPUs, have $$(nproc))"; exit 0; \
	fi; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ ./cmd/adaptserve ./cmd/adaptload; \
	for n in 1 4; do \
		$$tmp/adaptserve -addr 127.0.0.1:19770 -telemetry '' -shards $$n -trace=false > $$tmp/serve$$n.log 2>&1 & pid=$$!; \
		sleep 1; \
		$$tmp/adaptload -addr 127.0.0.1:19770 -tenants 8 -workers 8 -duration 2s > $$tmp/load$$n.log 2>&1; \
		kill -TERM $$pid; wait $$pid; pid=; \
	done; \
	one=$$(awk '/^aggregate:/ { for (i = 2; i <= NF; i++) if ($$i == "ops/s") print $$(i-1) }' $$tmp/load1.log); \
	four=$$(awk '/^aggregate:/ { for (i = 2; i <= NF; i++) if ($$i == "ops/s") print $$(i-1) }' $$tmp/load4.log); \
	awk -v a="$$one" -v b="$$four" 'BEGIN { \
		printf "scale-smoke: 1 shard %.0f ops/s, 4 shards %.0f ops/s (%.2fx)\n", a, b, b/a; \
		exit !(a > 0 && b > 1.5 * a) }'; \
	echo "scale-smoke OK"
