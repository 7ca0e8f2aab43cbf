#!/bin/sh
# unused-exports finds exported functions and methods under internal/
# that nothing refers to outside their own definition and _test.go
# files: surface kept alive only by its own tests. Grep-based, so a
# name shared by several types is judged as one, interface
# implementations called only through the interface (String, Error,
# ServeHTTP, RoundTrip, ...) need a human eye, and a hit is a question,
# not a verdict.
#
# It is a ratchet: scripts/unused-exports.allow holds the names already
# known (one a line; delete a line when its function goes or gains a
# caller), only names not on it are printed, and any such name fails.
#
#	make unused-exports
set -eu
cd "$(dirname "$0")/.."

files=$(git ls-files --cached --others --exclude-standard -- '*.go' | grep -v '_test\.go$' |
	while read -r f; do [ -f "$f" ] && echo "$f"; done)
# shellcheck disable=SC2086
new=$(grep -hoE '^func (\([a-zA-Z_]+ \*?[A-Za-z_]+(\[[^]]*\])?\) )?[A-Z][A-Za-z0-9_]*' $(echo "$files" | grep '^internal/') |
	sed -E 's/^func (\([^)]*\) )?//' | sort -u |
	while read -r name; do
		# Every line that mentions the name as a whole word, minus the
		# lines that define it, minus comments.
		# shellcheck disable=SC2086
		uses=$(grep -hwE "$name" $files |
			grep -vE "^func (\([^)]*\) )?$name\(" |
			grep -vcE '^[[:space:]]*//' || true)
		[ "$uses" -gt 0 ] || echo "$name"
	done | grep -vxFf scripts/unused-exports.allow || true)
if [ -n "$new" ]; then
	echo "exported under internal/, mentioned only by tests, not in scripts/unused-exports.allow:" >&2
	echo "$new"
	exit 1
fi
