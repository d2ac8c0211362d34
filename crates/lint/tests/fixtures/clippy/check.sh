#!/bin/sh
# Parity guard for the rules burstcap-lint handed to clippy: lint this
# fixture crate with the workspace's root clippy.toml and compare its
# findings, one `file:line lint` per line, to expected.txt. Needs jq.
#
#   sh crates/lint/tests/fixtures/clippy/check.sh   # from the repository root
#
# `--cap-lints warn` keeps the denied lints from stopping the build before
# the binary target is checked; the levels themselves come from the crate.
set -eu
dir=crates/lint/tests/fixtures/clippy
out=target/clippy-fixtures
mkdir -p "$out"
cargo clippy --quiet --manifest-path "$dir/Cargo.toml" --all-targets \
    --target-dir "$out" --message-format=json -- --cap-lints warn |
    jq -r 'select(.reason == "compiler-message") | .message
        | select(.code != null)
        | (.spans[] | select(.is_primary)) as $s
        | "\($s.file_name):\($s.line_start) \(.code.code)"' |
    LC_ALL=C sort -u >"$out/findings.txt"
diff "$dir/expected.txt" "$out/findings.txt"
echo "clippy fixtures: $(wc -l <"$out/findings.txt") findings match expected.txt"
