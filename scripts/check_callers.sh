#!/usr/bin/env bash
# Checks that the public surface equals its callers: every `pub fn`
# under crates/*/src whose name appears in no other Rust file across
# crates/, src/, tests/, examples/ and benchmark/src/ fails this check,
# unless the allow-list below names it with a reason. Such a function
# is either dead (delete it with the tests that only exercised it) or
# used by its own file alone (make it private). Only non-test code is
# scanned: every line above a file's first `#[cfg(test)]`; comment
# lines are skipped. A name is matched as a whole word, so a caller
# anywhere (a method call, a path, a doc link) counts.
set -euo pipefail
cd "$(dirname "$0")/.."

# `name reason`, one a line: public functions kept without a caller in
# another file.
allow=$(cat <<'EOF'
seq_into named by the `tile_state!` expansion in each application's crate
EOF
)

fail=0
while IFS= read -r file; do
    while IFS=: read -r line name; do
        if grep -qE "^$name " <<<"$allow"; then
            continue
        fi
        if ! grep -rlw --include='*.rs' -- "$name" crates src tests examples benchmark/src |
            grep -qvxF "$file"; then
            echo "$file:$line: pub fn $name has no caller outside its file"
            fail=1
        fi
    done < <(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        match($0, /pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
            decl = substr($0, RSTART, RLENGTH)
            sub(/.* fn /, "", decl)
            printf "%d:%s\n", NR, decl
        }
    ' "$file")
done < <(find crates/*/src -name '*.rs' | sort)

if [ "$fail" -ne 0 ]; then
    echo "delete each function above, make it private, or allow it with a reason" >&2
    exit 1
fi
echo "callers: every pub fn under crates/*/src is named outside its file"
