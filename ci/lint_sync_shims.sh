#!/bin/sh
# Deny raw std::sync primitives in the crates migrated onto the `conc`
# shims (crates/conc/README in DESIGN.md §16): a `std::sync::Mutex`,
# `std::sync::RwLock`, or `std::sync::atomic::Atomic*` smuggled into one
# of these crates would be invisible to lockdep and to the deterministic
# scheduler — the sanitizer would silently stop covering that code path.
#
# Allowed and deliberately NOT matched:
#   - std::sync::Arc, std::sync::mpsc      (not scheduling-relevant)
#   - std::sync::atomic::Ordering          (just the enum)
#   - crates/conc itself and crates/vendor/{rand,proptest,criterion}
#     (the shim layer owns the real primitives; the vendored
#     stand-ins are single-threaded test scaffolding)
#
# Exit 1 (deny mode) on any hit, printing file:line for each.

set -eu

cd "$(dirname "$0")/.."

MIGRATED="crates/exec/src crates/object/src crates/server/src crates/storage/src"
PATTERN='std::sync::(Mutex|RwLock)|std::sync::atomic::(\{[^}]*)?Atomic(Bool|U8|U16|U32|U64|Usize|I8|I16|I32|I64|Isize|Ptr)'

# shellcheck disable=SC2086  # MIGRATED is a deliberate word list
hits=$(grep -rnE "$PATTERN" $MIGRATED || true)

if [ -n "$hits" ]; then
    echo "error: raw std::sync primitive(s) in conc-migrated crates" >&2
    echo "$hits" >&2
    echo >&2
    echo "Use the drop-in shims instead (conc::Mutex, conc::RwLock," >&2
    echo "conc::Atomic*): identical codegen in release builds, and the" >&2
    echo "concheck scheduler + lockdep can see them. See DESIGN.md §16." >&2
    exit 1
fi

echo "lint_sync_shims: OK ($(echo "$MIGRATED" | wc -w | tr -d ' ') trees clean)"
