#!/bin/sh
# CI driver. `./ci.sh` runs the full gate (same as `make ci`);
# `./ci.sh <stage>` runs one stage — the names are the arms of the
# `case` at the bottom, each described at its function — and any other
# name exits 2 without running anything.
set -eu

cd "$(dirname "$0")"

vet_examples() {
	# Every example IDL must lint clean, alone and combined with the
	# .pdl endpoint files that sit next to it: a client.pdl/server.pdl
	# pair is checked as the two endpoints of one connection, any
	# other .pdl as a single endpoint.
	find examples -name '*.idl' | sort | while read -r idl; do
		dir=$(dirname "$idl")
		echo "flexc vet $idl"
		go run ./cmd/flexc vet "$idl"
		if [ -f "$dir/client.pdl" ] && [ -f "$dir/server.pdl" ]; then
			echo "flexc vet -pdl $dir/client.pdl -peer-pdl $dir/server.pdl $idl"
			go run ./cmd/flexc vet -pdl "$dir/client.pdl" -peer-pdl "$dir/server.pdl" "$idl"
		fi
		for pdl in "$dir"/*.pdl; do
			[ -f "$pdl" ] || continue
			echo "flexc vet -pdl $pdl $idl"
			go run ./cmd/flexc vet -pdl "$pdl" "$idl"
		done
	done
}

vet_go() {
	# The Go-source analyzers over the whole module, with the vetgo
	# contract bound so FV018 has [idempotent] ops to check. The
	# seeded violations in examples/vetgo must all fire; everything
	# else must be clean (zero false positives).
	out=$(mktemp)
	echo "flexc vet -go -json ./... (expect findings only in examples/vetgo)"
	if go run ./cmd/flexc vet -go -json \
		-idl examples/vetgo/vetgo.idl -pdl examples/vetgo/server.pdl \
		./... >"$out" 2>&1; then
		echo "vet -go reported nothing; the seeded violations in examples/vetgo must fire"
		rm -f "$out"
		exit 1
	elif [ $? -ge 2 ]; then
		echo "vet -go failed to run:"
		cat "$out"
		rm -f "$out"
		exit 1
	fi
	if grep '"file"' "$out" | grep -v '"file": *"examples/vetgo/' >/dev/null; then
		echo "vet -go false positive outside examples/vetgo:"
		grep '"file"' "$out" | grep -v '"file": *"examples/vetgo/'
		rm -f "$out"
		exit 1
	fi
	for id in FV017 FV018 FV020 FV023; do
		if ! grep -q "\"id\": *\"$id\"" "$out"; then
			echo "seeded violation $id in examples/vetgo not detected:"
			cat "$out"
			rm -f "$out"
			exit 1
		fi
	done
	rm -f "$out"
	echo "vet -go: all seeded violations fire, no false positives"
}

certify() {
	# Plan certificates must reproduce their checked-in goldens: the
	# 0-alloc / bounded-decode claims are part of the contract, and
	# any plan-compiler change that shifts them must be deliberate.
	# Regenerate with:  ./ci.sh certify -update
	for dir in examples/vetgo examples/pipes/fileio; do
		idl=$(ls "$dir"/*.idl)
		echo "flexc vet -certify -pdl $dir/server.pdl $idl"
		if [ "${1:-}" = "-update" ]; then
			go run ./cmd/flexc vet -certify -pdl "$dir/server.pdl" "$idl" >"$dir/certificate.json"
		else
			go run ./cmd/flexc vet -certify -pdl "$dir/server.pdl" "$idl" |
				diff -u "$dir/certificate.json" - ||
				{ echo "certificate drifted from $dir/certificate.json (regenerate with ./ci.sh certify -update)"; exit 1; }
		fi
	done
}

flexload_smoke() {
	# A 1-second flexload run: 256 connections against the in-process
	# shared-pool server. -check makes flexc itself assert non-zero
	# goodput and zero error-taxonomy violations, so a wedged pool,
	# leaked reader, or broken session layer fails CI here.
	idl=$(mktemp -t flexload_smoke_XXXXXX.idl)
	cat >"$idl" <<-'EOF'
		interface Smoke {
		    void nop();
		    long ping(in long x);
		};
	EOF
	echo "flexc load -conns 256 -measure 1s -check $idl"
	# Run under `if` so `set -e` cannot skip the temp-file cleanup
	# when the check fails.
	if ! go run ./cmd/flexc load -conns 256 -think 1ms -warmup 100ms -measure 1s -check "$idl"; then
		rm -f "$idl"
		exit 1
	fi
	rm -f "$idl"
}

netpoll_smoke() {
	# The portable fallback must keep building: darwin has no raw-epoll
	# poller, so netpoll_stub.go serves it and every conn falls back to
	# a goroutine reader with identical semantics.
	echo "GOOS=darwin go build ./... (netpoll portable fallback)"
	GOOS=darwin go build ./...

	# Idle-connection scale: raise RLIMIT_NOFILE as far as the host
	# allows, then size the smoke to the descriptor budget — 100k conns
	# want ~200k fds (two per in-process connection); capped hosts run
	# the largest count that fits instead of skipping.
	want="${NETPOLL_SMOKE_CONNS:-100000}"
	ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
	limit=$(ulimit -n)
	conns=$want
	if [ "$limit" != "unlimited" ]; then
		budget=$(((limit - 768) / 2))
		if [ "$budget" -lt "$conns" ]; then
			echo "RLIMIT_NOFILE=$limit caps the netpoll smoke at $budget conns (wanted $want)"
			conns=$budget
		fi
	fi
	echo "NETPOLL_SMOKE_CONNS=$conns go test -run TestNetpollIdleConnScale ./internal/sunrpc"
	if ! NETPOLL_SMOKE_CONNS="$conns" go test -count=1 -v -run 'TestNetpollIdleConnScale$' ./internal/sunrpc; then
		exit 1
	fi

	# The CLI surfaces users drive: netpoll-mode and multi-process
	# flexload, both self-checked (-check fails on zero goodput or any
	# error-taxonomy violation).
	idl=$(mktemp -t netpoll_smoke_XXXXXX.idl)
	cat >"$idl" <<-'EOF'
		interface Np {
		    void nop();
		};
	EOF
	echo "flexc load -netpoll -conns 128 -measure 500ms -check $idl"
	if ! go run ./cmd/flexc load -netpoll -conns 128 -workers 4 -think 1ms -warmup 100ms -measure 500ms -check "$idl"; then
		rm -f "$idl"
		exit 1
	fi
	echo "flexc load -procs 2 -conns 64 -measure 500ms -check $idl"
	if ! go run ./cmd/flexc load -procs 2 -conns 64 -workers 4 -think 1ms -warmup 100ms -measure 500ms -check "$idl"; then
		rm -f "$idl"
		exit 1
	fi
	rm -f "$idl"
}

netpoll_stress() {
	# The poller loop, Close and Drain's poller teardown are the
	# concurrent code a single pass exercises least, so repeat them
	# under the race detector. GOMAXPROCS=1 as well as the default: one
	# P shared by poller, workers and callers is where a goroutine
	# parked in the scheduler differs most from a thread blocked in
	# epoll_wait.
	#
	# The sunrpc connection core is tested as mode tables (serial, pool,
	# netpoll, fallback rows in internal/sunrpc/modes_test.go); the
	# pattern names those tables, the poller-only tests and every Drain
	# test. Each alternative must select something: a rename fails the
	# stage here instead of turning it into a silent no-op.
	pkgs="./internal/sunrpc ./internal/conformance"
	pattern='Netpoll|Drain|HalfClose|SlowReader|PoolFull|PanicRecovery|ManyConns'
	for alt in $(echo "$pattern" | tr '|' ' '); do
		if ! go test -list "$alt" $pkgs | grep -q '^Test'; then
			echo "netpoll-stress: no test matches '$alt'; update the pattern in ci.sh"
			exit 1
		fi
	done
	for procs in "" 1; do
		echo "GOMAXPROCS=${procs:-default} go test -race -count=20 ./internal/netpoll"
		env ${procs:+GOMAXPROCS=$procs} go test -race -count=20 ./internal/netpoll
		echo "GOMAXPROCS=${procs:-default} go test -race -count=5 -run '$pattern' $pkgs"
		env ${procs:+GOMAXPROCS=$procs} go test -race -count=5 -run "$pattern" $pkgs
	done
}

frame_race() {
	# A call frame is safe only because its owner serialises the calls
	# (a shmring.Bound's mutex, its doorbell goroutine, the same-domain
	# program's claim on its own frame) or because the pool hands it to
	# one call at a time; eight goroutines on one Bound, one inproc.Conn
	# and one Dispatcher find a frame shared by two calls as a data
	# race. One pass catches few interleavings, so repeat it. Each
	# package must select a test: a rename fails here.
	pkgs="./internal/runtime ./internal/transport/shmring ./internal/transport/inproc"
	for pkg in $pkgs; do
		if ! go test -list 'FrameConcurrent' "$pkg" | grep -q '^Test'; then
			echo "frame-race: no test matches 'FrameConcurrent' in $pkg; update ci.sh"
			exit 1
		fi
	done
	echo "go test -race -count=10 -run FrameConcurrent $pkgs"
	go test -race -count=10 -run 'FrameConcurrent' $pkgs
	# Decoded values point into hand-built blocks, their tails and slabs
	# (slab.go): checkptr, on under -race, checks each of those pointers,
	# and each repetition meets a different GC schedule. The block and
	# the tail tests must each still be selected.
	for pat in 'SlabValues' 'SlabTails'; do
		if ! go test -list "$pat" ./internal/runtime | grep -q '^Test'; then
			echo "frame-race: no test matches '$pat' in ./internal/runtime; update ci.sh"
			exit 1
		fi
	done
	echo "go test -race -count=5 -run Slab ./internal/runtime"
	go test -race -count=5 -run 'Slab' ./internal/runtime
}

alloc_gates() {
	# Every AllocsPerRun gate skips itself under the race detector, and
	# the test stage above runs only with -race: without this stage CI
	# checks none of them. The pattern names the gates' naming
	# conventions; as in netpoll-stress, an alternative that selects
	# nothing fails the stage instead of turning it into a no-op.
	pattern='Alloc|ZeroAlloc|CertificateMatchesGates'
	for alt in $(echo "$pattern" | tr '|' ' '); do
		if ! go test -list "$alt" ./... | grep -q '^Test'; then
			echo "alloc-gates: no test matches '$alt'; update the pattern in ci.sh"
			exit 1
		fi
	done
	echo "go test -count=1 -run '$pattern' ./... (no -race)"
	go test -count=1 -run "$pattern" ./...
}

surface() {
	# The uncalled-surface gate alone: nothing without a caller, and no
	# field without a writer. Every package-level name and method under
	# internal/ must have a caller in a non-test file of the module,
	# bench/ or generated stubs, and every option field a non-test
	# writer outside its package, or a reasoned line in surface.allow;
	# the settable-value count must match the pinned one. The full gate
	# reaches it through `go test ./...`; -v prints the settable-value
	# count by kind and what each allowlist line keeps, declaration
	# lines and option fields.
	echo "go test -count=1 -v -run 'TestSurface' ./internal/analyze/gocheck"
	go test -count=1 -v -run 'TestSurface' ./internal/analyze/gocheck
}

lines() {
	# The line ratchet alone: non-test Go lines per area, bench/ and
	# testdata included, against the pins in lines_test.go. Any
	# difference fails and prints the new counts; a change commits them
	# and says in CHANGES.md why the lines moved. The full gate reaches
	# it through `go test ./...`; -v prints the counts.
	echo "go test -count=1 -v -run '^TestLineRatchet$' ."
	go test -count=1 -v -run '^TestLineRatchet$' .
}

model() {
	# The session protocol's small-scope model checker at its deeper
	# scope: two clients, a real SessionServer and ReplyCache, and a
	# channel that drops, duplicates, reorders and corrupts, every
	# schedule to 8 frames with 2 faults (tier-1 runs 1 fault).
	echo "FLEXRPC_MODEL=1 go test -count=1 -run SessionModel ./internal/runtime"
	FLEXRPC_MODEL=1 go test -count=1 -run SessionModel ./internal/runtime
}

bench_smoke() {
	# bench/ is its own module, so `go test ./...` from the root never
	# reaches it: its smoke test runs every workload once, checks the
	# replies and that BENCHMARK.json still matches the metric tables.
	echo "go test -C bench ./..."
	go test -C bench ./...
}

figures() {
	# Every registered figure at -quick size (~30 s). Each checks its
	# own claims against the numbers it just measured and the command
	# exits non-zero on a false one, so a change that inverts a figure's
	# shape fails here rather than in a reviewer's reading of a table.
	echo "go run ./cmd/experiments -quick"
	go run ./cmd/experiments -quick
}

fuzz_smoke() {
	# Short coverage-guided runs over every fuzz target in the module
	# (the network-facing decoders, today). `go test -fuzz` takes one
	# target of one package per invocation, so the (package, target)
	# pairs are derived from what the packages declare: a target can be
	# neither forgotten here nor left dangling after it is deleted. As
	# in alloc-gates, selecting nothing fails the stage. FUZZTIME
	# overrides the per-target budget (e.g. FUZZTIME=2m ./ci.sh
	# fuzz-smoke for a deeper pass).
	fuzztime="${FUZZTIME:-10s}"
	pairs=$(go test -list '^Fuzz' ./... |
		awk '/^Fuzz/ { t[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }')
	if [ -z "$pairs" ]; then
		echo "fuzz-smoke: go test -list '^Fuzz' ./... found no fuzz target"
		exit 1
	fi
	echo "$pairs" | while read -r pkg target; do
		echo "go test -run='^\$' -fuzz='^$target\$' -fuzztime=$fuzztime $pkg"
		go test -run='^$' -fuzz="^$target\$" -fuzztime="$fuzztime" "$pkg" || exit 1
	done
}

full() {
	echo "== gofmt"
	out=$(gofmt -l .)
	if [ -n "$out" ]; then
		echo "gofmt needed on:"
		echo "$out"
		exit 1
	fi

	echo "== go vet"
	go vet ./...

	echo "== go build"
	go build ./...

	echo "== go test -race"
	go test -race ./...

	echo "== frame reuse under -race, repeated"
	frame_race

	echo "== allocation gates (no -race)"
	alloc_gates

	echo "== session protocol model, deeper scope"
	model

	echo "== benchmarks compile and run one iteration each"
	go test -run='^$' -bench=. -benchtime=1x ./...

	echo "== figures: every claim holds at -quick size"
	figures

	echo "== bench module smoke"
	bench_smoke

	echo "== flexload smoke"
	flexload_smoke

	echo "== netpoll smoke"
	netpoll_smoke

	echo "== netpoll stress"
	netpoll_stress

	echo "== fuzz smoke"
	fuzz_smoke

	echo "== flexc vet examples"
	vet_examples

	echo "== flexc vet -go"
	vet_go

	echo "== flexc vet -certify"
	certify

	echo "CI green"
}

# One stage by name, or the full gate with no argument. An unknown
# name is a typo, not a request for the full gate.
case "${1:-}" in
"") full ;;
vet-examples) vet_examples ;;
vet-go) vet_go ;;
certify) certify "${2:-}" ;;
fuzz-smoke) fuzz_smoke ;;
flexload-smoke) flexload_smoke ;;
netpoll-smoke) netpoll_smoke ;;
netpoll-stress) netpoll_stress ;;
alloc-gates) alloc_gates ;;
frame-race) frame_race ;;
surface) surface ;;
lines) lines ;;
model) model ;;
bench-smoke) bench_smoke ;;
figures) figures ;;
*)
	echo "ci.sh: unknown stage '$1'; stages: vet-examples vet-go certify [-update] fuzz-smoke flexload-smoke netpoll-smoke netpoll-stress alloc-gates frame-race surface lines model bench-smoke figures (no argument runs them all)" >&2
	exit 2
	;;
esac
