#!/bin/sh
# flagdoc.sh: fail if the flags mdserver accepts differ from the ones
# the runbook documents. Builds cmd/mdserver, takes the flag names from
# its -h output, and compares them with the backticked `-flag` cells of
# the "mdserver flag reference" table in OPERATIONS.md, so a flag cannot
# be added or deleted without the table following.
#
#   sh scripts/flagdoc.sh        # run from the module root; make docs does
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
"${GO:-go}" build -o "$tmp/mdserver" ./cmd/mdserver || exit 1

"$tmp/mdserver" -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p' | sort >"$tmp/binary"
sed -n '/^## mdserver flag reference/,/^## /p' OPERATIONS.md |
	sed -n 's/^| `-\([a-z-]*\)`.*/\1/p' | sort >"$tmp/documented"

if [ ! -s "$tmp/binary" ] || [ ! -s "$tmp/documented" ]; then
	echo "flagdoc: found no flags in mdserver -h or in OPERATIONS.md's flag table" >&2
	exit 1
fi
if ! diff "$tmp/binary" "$tmp/documented" >"$tmp/diff"; then
	echo "flagdoc: mdserver -h and OPERATIONS.md's flag table disagree:" >&2
	sed -n 's/^< /  undocumented: -/p; s/^> /  documented but gone: -/p' "$tmp/diff" >&2
	exit 1
fi
