#!/usr/bin/env bash
# Reach check: every function outside bench/ runs in a figure, an example,
# tracegen or the benchmark, or testdata/reach.txt names it with a reason.
#
# It builds webbench, tracegen, the examples and the benchmark with coverage
# of every iolite package (the benchmark's own package is left out), then
# runs, from the repository root:
#   - every quick figure, and the proxy figure again with tracing on;
#   - every example;
#   - tracegen with no flags, with -trace ECE -points 20 and with -subtrace 60;
#   - a one-second benchmark smoke of every workload, untraced and traced.
# On the way it diffs each figure that has a golden (minus the timing line)
# and each example against its checked-in output, and checks that the trace
# export is Chrome trace-event JSON with request spans.
#
# The functions that read 0.0% in `go tool covdata func`, keyed by file and
# function name, must equal the ledger's entries. A ledger line reads
#
#	<file> <function> <reason>
#
# with one reason from: interface (the kind must have the method to be used
# where a figure uses it), String, root (declared in iolite.go, for outside
# modules), observer (read only by tests in another package that check
# behaviour a figure reaches) and error. Lines starting with # are comments.
#
# Run it from the repository root (about 2 minutes on 2 vCPUs):
#
#	bash scripts/reach.sh
#
# It exits 1 on a figure or example diff, an unreached function the ledger
# does not list, a listed function that ran or no longer exists, or a ledger
# line with another reason. REACH_KEEP=dir keeps the build and the unreached
# list in dir.
set -euo pipefail
export LC_ALL=C

if [[ ! -f go.mod || ! -f testdata/reach.txt || ! -f bench/go.mod ]]; then
	echo "reach.sh: run from the root of an iolite checkout" >&2
	exit 2
fi

ledger=testdata/reach.txt
if [[ -n ${REACH_KEEP:-} ]]; then
	tmp=$REACH_KEEP
	rm -rf "$tmp" && mkdir -p "$tmp"
else
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
fi
bin=$tmp/bin
mkdir -p "$bin" "$tmp/cov" "$tmp/trace"

pkgs=$(go list ./... | paste -sd, -)
go build -cover -coverpkg="$pkgs" -o "$bin/" ./cmd/webbench ./cmd/tracegen ./examples/...
# The benchmark builds as bench/run.sh builds it. Its own package is
# instrumented too, since a binary whose main package is not writes no
# coverage, but the report leaves it out.
benchgo() { GOFLAGS=-mod=readonly GOWORK=off go -C bench "$@"; }
benchpkgs=$(benchgo list -deps . | grep '^iolite\(/\|$\)' | paste -sd, -)
benchgo build -cover -coverpkg="$benchpkgs" -o "$bin/iolbench" .
export GOCOVERDIR=$tmp/cov

fail=0
for f in 3 4 5 6 7 8 9 10 11 12 13 proxy fcgi fcginet chaos qos; do
	"$bin/webbench" -fig "$f" -quick > "$tmp/out.txt"
	golden=internal/experiments/testdata/quick/$f.txt
	if [[ -f $golden ]] && ! awk '/^\(figure /{exit} 1' "$tmp/out.txt" | diff - "$golden"; then
		echo "reach.sh: figure $f differs from $golden" >&2
		fail=1
	fi
done

"$bin/webbench" -fig proxy -quick -trace "$tmp/t.json" > /dev/null
python3 - "$tmp/t.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
reqs = [e for e in d['traceEvents'] if e.get('name') == 'request']
assert reqs, 'trace has no request spans'
print(f"trace OK: {len(d['traceEvents'])} events, {len(reqs)} request spans")
EOF

for e in $(ls examples); do
	if ! "$bin/$e" | diff - "examples/$e/output.txt"; then
		echo "reach.sh: example $e differs from examples/$e/output.txt" >&2
		fail=1
	fi
done

"$bin/tracegen" > /dev/null
"$bin/tracegen" -trace ECE -points 20 > /dev/null
"$bin/tracegen" -subtrace 60 > /dev/null

for t in 0 1; do
	"$bin/iolbench" --seconds 1 --window 1s --trace "$t" --tracedir "$tmp/trace" > /dev/null
done

# file function, without the module prefix and the line number.
go tool covdata func -i="$tmp/cov" -pkg="$pkgs" |
	awk '/:[0-9]+:/ { sub(/^iolite\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2, $NF }' > "$tmp/funcs"
awk '$3 == "0.0%" { print $1, $2 }' "$tmp/funcs" | sort > "$tmp/unreached"
awk '{ print $1, $2 }' "$tmp/funcs" | sort > "$tmp/all"

if ! awk '
	/^#/ || NF == 0 { next }
	NF != 3 || $3 !~ /^(interface|String|root|observer|error)$/ {
		printf "%s:%d: want \"<file> <function> <reason>\", reason one of interface, String, root, observer, error: %s\n", FILENAME, FNR, $0 > "/dev/stderr"
		bad = 1
		next
	}
	{ print $1, $2 }
	END { exit bad }' "$ledger" | sort > "$tmp/listed"; then
	fail=1
fi

comm -23 "$tmp/unreached" "$tmp/listed" | sed 's/^/reach.sh: unreached, not in the ledger: /' >&2
comm -13 "$tmp/unreached" "$tmp/listed" > "$tmp/stale"
comm -12 "$tmp/stale" "$tmp/all" | sed 's/^/reach.sh: in the ledger, but it ran: /' >&2
comm -23 "$tmp/stale" "$tmp/all" | sed 's/^/reach.sh: in the ledger, but no such function: /' >&2
if [[ -s $tmp/stale ]] || [[ -n $(comm -23 "$tmp/unreached" "$tmp/listed") ]]; then
	fail=1
fi

echo "reach.sh: $(wc -l < "$tmp/unreached") functions unreached, $(wc -l < "$tmp/listed") listed"
exit $fail
