#!/usr/bin/env bash
# Checks that every relative markdown link and every backtick-quoted
# repo path mentioned in README.md and docs/*.md points at a file or
# directory that actually exists, and that every `*.md` file a Rust
# source under crates/, src/, tests/ or examples/ names exists. Keeps
# the documentation honest as the tree moves: a renamed crate, test,
# spec or document fails CI instead of leaving a dangling reference.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

check() {
    local doc="$1" target="$2"
    # strip anchors and trailing punctuation
    target="${target%%#*}"
    [ -z "$target" ] && return 0
    case "$target" in
        http://*|https://*|mailto:*) return 0 ;;
    esac
    local base
    base="$(dirname "$doc")"
    if [ ! -e "$target" ] && [ ! -e "$base/$target" ]; then
        echo "BROKEN: $doc -> $target"
        fail=1
    fi
}

for doc in README.md docs/*.md; do
    # 1. markdown links: [text](target)
    while IFS= read -r target; do
        check "$doc" "$target"
    done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')

    # 2. backtick-quoted repo paths: `crates/...`, `tests/...`, etc.
    while IFS= read -r target; do
        check "$doc" "$target"
    done < <(grep -o '`\(crates\|tests\|docs\|specs\|scripts\|src\|vendor\)/[A-Za-z0-9_./-]*`' "$doc" \
             | tr -d '\`' | sed 's|/$||')
done

# 3. markdown files named in Rust sources (comments and docs alike): a
#    name resolves from the repo root or from the naming file's directory
while IFS=: read -r src target; do
    check "$src" "$target"
done < <(grep -roE --include='*.rs' '[A-Za-z0-9_./-]+\.md\b' crates src tests examples | sort -u)

if [ "$fail" -ne 0 ]; then
    echo "documentation references broken paths (see above)"
    exit 1
fi
echo "all documentation links and repo paths resolve"
