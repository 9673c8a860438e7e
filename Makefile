GO ?= go

.PHONY: check vet build test race bench-module fuzz-smoke chaos bench bench-json bench-render bench-fleet bench-quality

# check is the pre-commit gate: static analysis, a full build, the full
# test suite, the race detector over every package, and the benchmark
# module's own vet + tests.
check: vet build test race bench-module

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module vets and tests bench/, a nested module (sortlast/bench)
# that `go build ./... && go test ./...` at the root never compiles:
# without this step a renamed internal symbol silently breaks the
# benchmark. ~16 s.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke gives each parser of bytes that crossed a rank-to-rank
# socket ten seconds of coverage-guided fuzzing from its real seeds: the
# region decoders and gather messages, the TCP frame reader, the connect
# handshake. A crasher is written to the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRegionDecode$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/mpnet
	$(GO) test -run '^$$' -fuzz '^FuzzHandshake$$' -fuzztime 10s ./internal/mpnet

# chaos drives an in-process renderd through injected connection resets
# with a retrying client: the run fails only if a configuration cannot
# serve a single frame through the world restarts.
chaos:
	$(GO) run ./cmd/servebench -chaos -frames 16 -size 96 -out -

# bench runs the allocation benchmarks used in EXPERIMENTS.md: the
# compositing phase alone, and the compositing phase plus the gather.
bench:
	$(GO) test -run xxx -bench 'BenchmarkCompositeAllocs|BenchmarkGatherAllocs' -benchmem .

# bench-json measures the serving tier (frames/sec, p50/p99 latency at
# P=4 and P=8) and writes BENCH_serve.json. Fails loudly when the
# in-process renderd cannot start or serve.
bench-json:
	@$(GO) run ./cmd/servebench -out BENCH_serve.json || \
		{ echo "bench-json: FAILED -- servebench could not start or drive renderd (see error above); BENCH_serve.json not updated" >&2; exit 1; }

# bench-render measures the ray-cast kernel against the
# pre-acceleration reference (ns/ray, speedup, macro-cell skip fraction)
# and writes BENCH_render.json. The run itself verifies byte-identity,
# so a kernel regression fails loudly here too.
bench-render:
	@$(GO) run ./cmd/renderbench -out BENCH_render.json || \
		{ echo "bench-render: FAILED -- renderbench did not complete or the kernels diverged (see error above); BENCH_render.json not updated" >&2; exit 1; }

# bench-fleet measures the fleet gateway (replica routing, hedged
# dispatch, frame cache) against a single-world baseline and sweeps an
# open-loop, coordinated-omission-safe load curve; writes
# BENCH_fleet.json. The run itself verifies cached replies are
# byte-identical to direct renders and that the load generator kept its
# schedule, so either failure mode is loud.
bench-fleet:
	@$(GO) run ./cmd/servebench -fleet 2 -out BENCH_fleet.json || \
		{ echo "bench-fleet: FAILED -- the fleet benchmark did not complete, a cached reply diverged, or the open-loop generator could not hold its offered rate (see error above); BENCH_fleet.json not updated" >&2; exit 1; }

# bench-quality runs both quality contracts (full, preview) over one
# dense workload and writes BENCH_quality.json. The sweep itself
# asserts preview cuts p99 latency at least 2x against full, so a
# quality contract that stops buying latency fails loudly.
bench-quality:
	@$(GO) run ./cmd/servebench -quality sweep -out BENCH_quality.json || \
		{ echo "bench-quality: FAILED -- the quality sweep did not complete or preview lost its 2x p99 margin over full (see error above); BENCH_quality.json not updated" >&2; exit 1; }
