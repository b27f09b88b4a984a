# flexrpc build and CI entry points. `make ci` is what the repository
# considers green: the full gate in ci.sh — formatting, go vet, build,
# race-enabled tests, allocation gates, benchmark and figure checks,
# the flexload/netpoll/fuzz smokes, flexvet over every example
# IDL/PDL, the Go-source analyzer sweep and the plan-certificate diff.
# The other targets run single stages.

GO ?= go

.PHONY: ci fmt-check vet build test vet-examples vet-go certify surface golden

ci:
	./ci.sh

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# flexvet over every .idl/.pdl under examples/ (see ci.sh for the
# pairing logic).
vet-examples:
	./ci.sh vet-examples

# The Go-source analyzers over the whole module: seeded violations in
# examples/vetgo must fire, everything else must be clean.
vet-go:
	./ci.sh vet-go

# Plan certificates must reproduce their checked-in goldens.
certify:
	./ci.sh certify

# The uncalled-surface gate: nothing under internal/ without a caller
# outside tests, or a reasoned line in surface.allow.
surface:
	./ci.sh surface

# Regenerate the analyzer's golden diagnostic files and the plan
# certificates after an intentional change.
golden:
	$(GO) test ./internal/analyze/... -run Golden -update
	./ci.sh certify -update
