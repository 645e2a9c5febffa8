#!/usr/bin/env bash
# Checks that every output file is written through one module,
# crates/config/src/output.rs: it creates parent directories, replaces
# whole files atomically and names the path in its errors. Any other
# non-test code under crates/*/src or src/ that creates, truncates,
# appends to or renames a file fails this check. Non-test code is every
# line above a file's first `#[cfg(test)]`; comment lines are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

writer=crates/config/src/output.rs
pattern='File::create|fs::write|OpenOptions|fs::rename|create_dir_all'

fail=0
while IFS= read -r file; do
    [ "$file" = "$writer" ] && continue
    hits=$(awk -v f="$file" -v pat="$pattern" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        $0 ~ pat { printf "%s:%d: %s\n", f, NR, $0 }
    ' "$file")
    if [ -n "$hits" ]; then
        echo "$hits"
        fail=1
    fi
done < <(find crates/*/src src -name '*.rs' | sort)

if [ "$fail" -ne 0 ]; then
    echo "write files through muchisim_config::output ($writer) instead" >&2
    exit 1
fi
echo "one writer: only $writer opens files for writing"
