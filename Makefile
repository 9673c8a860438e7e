GO ?= go

.PHONY: check check-norace fmt vet build test race bench-module tables fuzz-smoke bench lines

# check is the pre-commit gate: formatting, static analysis, a full
# build, the full test suite, the race detector over every package, and
# the benchmark module's own vet + tests.
check: check-norace race

# check-norace is check without the race detector: what CI's check job
# runs, because its race job already races every package on the same
# commit.
check-norace: fmt vet build test bench-module tables

# fmt fails on any file gofmt would rewrite (bench/ included) and names
# it: drift go vet does not report.
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

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

# tables regenerates the paper's tables and figures (composebench -all)
# and the seven-method Table 1 at non-power-of-two P, drops the two
# host-timed columns, and diffs what is left against the goldens in
# cmd/composebench/testdata: every modeled time and makespan, M_max, the
# empty-rectangle and non-blank counts and the render imbalance. ~30 s on
# 2 vCPUs. Only a change meant to move a count records them again:
#   go run ./cmd/composebench -all -csv | awk -F, -f cmd/composebench/testdata/untimed.awk > cmd/composebench/testdata/paper_counts.csv
#   go run ./cmd/composebench $(ANYP) | awk -F, -f cmd/composebench/testdata/untimed.awk > cmd/composebench/testdata/anyp_counts.csv
TABLES = cmd/composebench/testdata
ANYP = -table 1 -method bs,bsbr,bslc,bsbrc,direct,ds,dfb -plist 3,5,6,7,12 -csv
tables:
	$(GO) run ./cmd/composebench -all -csv | awk -F, -f $(TABLES)/untimed.awk | diff $(TABLES)/paper_counts.csv -
	$(GO) run ./cmd/composebench $(ANYP) | awk -F, -f $(TABLES)/untimed.awk | diff $(TABLES)/anyp_counts.csv -

# fuzz-smoke gives each parser of bytes that crossed a rank-to-rank
# socket ten seconds of coverage-guided fuzzing from its real seeds: the
# region decoders and gather messages, the TCP frame reader, the connect
# handshake. A crasher is written to the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRegionDecode$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/mpnet
	$(GO) test -run '^$$' -fuzz '^FuzzHandshake$$' -fuzztime 10s ./internal/mpnet

# bench runs the allocation benchmarks used in EXPERIMENTS.md: the
# compositing phase alone, and the compositing phase plus the gather,
# for every registered method.
bench:
	$(GO) test -run xxx -bench 'BenchmarkCompositeAllocs|BenchmarkGatherAllocs' -benchmem .

# lines is the size figure EXPERIMENTS.md's census tables and ROADMAP
# quote: non-test .go outside bench/, blank and comment-only lines
# dropped, per top-level directory ("." is the root package), per
# internal/* package, and in total. Not part of check.
lines:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -print | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l; }; \
	for d in */; do \
		[ "$$d" = bench/ ] || printf '%-20s %6d\n' "$${d%/}" "$$(count "$$d")"; \
	done; \
	for d in internal/*/; do \
		printf '%-20s %6d\n' "$${d%/}" "$$(count "$$d")"; \
	done; \
	printf '%-20s %6d\n' . "$$(count . -maxdepth 1)"; \
	printf '%-20s %6d\n' total "$$(count . -path ./bench -prune -o)"
