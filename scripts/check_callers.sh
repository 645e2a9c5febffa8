#!/usr/bin/env bash
# Checks that the public surface equals its callers, as the compiler
# resolves them. In a copy of the working tree, every non-test `pub`
# item of the library crates under crates/ and of the root package's
# src/ is rewritten to `pub(crate)`: functions, structs, enums, traits,
# type aliases, consts, statics, and `pub use` re-exports (a re-export
# is neither a caller nor a definition). `cargo check` then runs on
# every target of the workspace and of benchmark/. Each item that a
# privacy error or a private-interface warning names gets its `pub`
# back, and the check repeats until it is clean. A type the public API
# reaches counts as named: the re-export that names it stays.
#
# Every item still narrowed has no caller outside its crate: this check
# fails on it unless the allow-list below names it with a reason.
# Write it `pub(crate)` or delete it; once it is `pub(crate)`, rustc's
# `dead_code` flags it if nothing but its unit tests uses it.
#
# Non-test code is every line above a file's `#[cfg(test)] mod`;
# comment lines are skipped. Struct fields are not narrowed. The
# repository itself is not touched. Items are named `Type::method` for
# methods of inherent impls, by their name otherwise, and by their path
# for re-exports.
set -euo pipefail
cd "$(dirname "$0")/.."

# `name reason`, one a line: public items kept without a caller in
# another crate.
allow=$(cat <<'EOF'
TaskCtx::ctrl_ops the paper's instrumentation API counts control ops; no suite app issues one yet
Payload::is_empty clippy's len_without_is_empty pairs it with the public Payload::len
EOF
)

copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT

# the working tree as it stands, tracked and untracked files alike
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -f "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar --null -T - -cf - | tar -xf - -C "$copy"

# Narrow every item. A re-export of several names becomes one
# `pub(crate) use` line per name, so that each can be given back alone.
# One row per item in `items`: file, line in the copy, line in the
# working tree, kind, name, state.
items=$copy/.callers-items
: >"$items"
while IFS= read -r file; do
    awk -v file="$file" -v items="$items" '
        function emit(line) { print line; out++ }
        function item(kind, name) {
            print file "\t" out + 1 "\t" NR "\t" kind "\t" name "\tnarrowed" >>items
        }
        function narrow(line,    ind, rest, kind, name, t, i, c, depth) {
            if (line ~ /^[ \t]*\/\//) return line
            if (match(line, /^[ ]*impl[ <]/)) {
                impl_ind = match(line, /[^ ]/) - 1
                t = line
                sub(/^[ ]*impl/, "", t)
                if (t ~ /^</) {   # skip the generic parameters
                    for (i = 1; i <= length(t); i++) {
                        c = substr(t, i, 1)
                        if (c == "<") depth++
                        if (c == ">" && --depth == 0) break
                    }
                    t = substr(t, i + 1)
                }
                impl_ty = ""
                if (t !~ / for / && match(t, /[A-Za-z_][A-Za-z0-9_]*/)) impl_ty = substr(t, RSTART, RLENGTH)
                return line
            }
            if (impl_ty != "" && line ~ ("^" sprintf("%" impl_ind "s", "") "}")) impl_ty = ""
            if (!match(line, /^[ ]*pub (const fn|unsafe fn|fn|struct|enum|trait|type|const|static) /))
                return line
            ind = match(line, /[^ ]/) - 1
            rest = substr(line, ind + 5)
            sub(/^(const|unsafe) fn /, "fn ", rest)
            kind = rest
            sub(/ .*/, "", kind)
            sub(/^[a-z]+ (mut )?/, "", rest)
            match(rest, /[A-Za-z_][A-Za-z0-9_]*/)
            name = substr(rest, RSTART, RLENGTH)
            if (kind == "fn" && impl_ty != "" && ind > impl_ind) name = impl_ty "::" name
            item(kind, name)
            sub(/pub /, "pub(crate) ", line)
            return line
        }
        function reexport(stmt,    ind, path, names, n, i) {
            ind = substr(stmt, 1, match(stmt, /[^ ]/) - 1)
            sub(/^[ ]*pub use /, "", stmt)
            sub(/[ ]*;.*/, "", stmt)
            gsub(/[ ]+/, " ", stmt)
            if (!match(stmt, /\{.*\}/)) {
                item("use", stmt)
                emit(ind "pub(crate) use " stmt ";")
                return
            }
            path = substr(stmt, 1, RSTART - 1)
            n = split(substr(stmt, RSTART + 1, RLENGTH - 2), names, ",")
            for (i = 1; i <= n; i++) {
                gsub(/^ | $/, "", names[i])
                if (names[i] == "") continue
                item("use", path names[i])
                emit(ind "pub(crate) use " path names[i] ";")
            }
        }
        stmt != "" {
            stmt = stmt " " $0
            if ($0 ~ /;/) { reexport(stmt); stmt = "" }
            next
        }
        tests { emit($0); next }
        /^#\[cfg\(test\)\]/ {
            emit($0)
            if ((getline) > 0 && $0 ~ /^(pub(\(crate\))? )?mod /) tests = 1
            emit(tests ? $0 : narrow($0))
            next
        }
        /^[ ]*pub use / {
            if ($0 ~ /;/) reexport($0)
            else stmt = $0
            next
        }
        { emit(narrow($0)) }
    ' "$file" >"$copy/$file.narrowed"
    mv "$copy/$file.narrowed" "$copy/$file"
done < <(find crates/*/src src -name '*.rs' | sort)

# Prints what the privacy errors and private-interface warnings of one
# workspace, in directory $1, name. The use sites are primary spans and
# the definitions secondary spans and notes: each prints as
# `file:line`. Two kinds name no definition, and the item is looked up
# by name in its crate: a re-export of an item still narrowed (E0364,
# E0365), and a type the public API reaches that has lost the
# re-export naming it (`unnameable_types`). Each prints as `reexport`,
# its file, the item's name and its source line. A failing check
# prints its errors on stderr.
named() {
    local dir=$1 json
    json=$(cd "$copy/$dir" && CARGO_TARGET_DIR="$copy/target" RUSTFLAGS='--cap-lints=warn -W unnameable_types' \
        cargo check --offline --quiet --all-targets --keep-going --message-format=json \
        ${2:-} 2>/dev/null) || jq -r 'select(.reason == "compiler-message")
        | .message | select(.level == "error") | .rendered' <<<"$json" >&2
    jq -r --arg root "$copy/" --arg dir "${dir:+$dir/}" '
        def path: if startswith("/") then ltrimstr($root) else $dir + . end;
        select(.reason == "compiler-message") | .message
        | select(.level == "error"
            or ((.code.code // "") | test("^(private_(interfaces|bounds)|unnameable_types)$")))
        | if (.code.code // "" | test("^(E036[45]|unnameable_types)$")) then
            .spans[0] as $s
            | "reexport\t\($s.file_name | path)\t\(.message | capture("`(?<n>[^`]+)`").n)\t\($s.text[0].text)"
          else
            ([.spans[] | select(.is_primary | not)] + [.children[].spans[]])[]
            | "\(.file_name | path):\(.line_start)"
          end' <<<"$json"
}

# Gives back `pub` to every narrowed item named, until both workspaces
# check clean.
pass=0
while :; do
    lines=$( { named "" --workspace; named benchmark; } 2>"$copy/.callers-errors" | sort -u)
    back=$(awk -F'\t' '
        NR == FNR && $1 == "reexport" {
            # the crate the re-exported path starts in
            src = $2
            sub(/src\/.*/, "src/", src)
            if (match($4, /use muchisim_[a-z]+::/)) src = "crates/" substr($4, RSTART + 13, RLENGTH - 15) "/src/"
            reexport[src "\t" $3]
            next
        }
        NR == FNR { named[$0]; next }
        $6 != "narrowed" { next }
        ($1 ":" $2) in named { print FNR; next }
        {
            base = $5
            if ($4 == "use") { sub(/ as .*/, "", base); sub(/.*::/, "", base) }
            else if (base ~ /::/) next
            src = $1
            sub(/src\/.*/, "src/", src)
            if ((src "\t" base) in reexport) print FNR
        }
    ' <(printf '%s\n' "$lines") "$items")
    if [ -z "$back" ]; then
        if [ -s "$copy/.callers-errors" ]; then
            cat "$copy/.callers-errors" >&2
            echo "callers: the narrowed copy fails to check for a reason no item explains" >&2
            exit 2
        fi
        break
    fi
    echo "callers: pass $((++pass)), $(wc -w <<<"$back") items given back their pub" >&2
    for row in $back; do
        IFS=$'\t' read -r file line _ <<<"$(sed -n "${row}p" "$items")"
        sed -i "${line}s/pub(crate) /pub /" "$copy/$file"
        sed -i "${row}s/\tnarrowed\$/\tpublic/" "$items"
    done
done

fail=0
while IFS=$'\t' read -r file _ line kind name state; do
    [ "$state" = narrowed ] || continue
    if grep -qxF -- "$name" <(sed 's/ .*//' <<<"$allow"); then
        continue
    fi
    echo "$file:$line: pub $kind $name has no caller outside its crate"
    fail=1
done <"$items"
while read -r name _; do
    [ -n "$name" ] || continue
    if ! awk -F'\t' -v n="$name" '$5 == n && $6 == "narrowed" { found = 1 } END { exit !found }' "$items"; then
        echo "allow-list: $name is no longer an item without outside callers"
        fail=1
    fi
done <<<"$allow"

if [ "$fail" -ne 0 ]; then
    echo "write each item above pub(crate), delete it, or allow it with a reason" >&2
    exit 1
fi
echo "callers: $(grep -c $'\tpublic$' "$items") public items under crates/*/src and src/," \
    "each used outside its crate; $(grep -c . <<<"$allow" || true) more allow-listed"
