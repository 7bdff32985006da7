//! theta-analyze — workspace-wide symbol-graph static analyzer.
//!
//! Grown out of the per-file secret-hygiene token scanner (the
//! `theta-lint` binary in `main.rs`): this library builds a workspace
//! symbol table and call graph from a hand-rolled lightweight Rust
//! parser (zero dependencies, same policy as the rest of the repo) and
//! runs four analyses over it:
//!
//! 1. [`taint`] — secret values flowing interprocedurally into
//!    `format!`/`println!`/journal/serialize sinks and non-`ct_eq`
//!    comparisons;
//! 2. [`locks`] — `theta_sync::Mutex` acquisition-order graph composed
//!    over the call graph; cycles are potential deadlocks;
//! 3. [`blocking`] — functions reachable from the router `select!`
//!    loop, the poll(2) front-end loop, and gossip reader threads must
//!    not sleep, block on a channel, do file I/O, or call worker-only
//!    crypto;
//! 4. [`panics`] — `unwrap`/`expect`/indexing reachable from
//!    network-facing entry points, gated by a justified allowlist.
//!
//! The pipeline is `lexer` → `parser` → `symbols` (+ `callgraph`) →
//! passes → `report`; `analyze` glues it together behind the
//! `theta-lint analyze` subcommand.

pub mod analyze;
pub mod blocking;
pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod parser;
pub mod report;
pub mod symbols;
pub mod taint;

/// Types whose values are secret material, wherever they are defined.
/// Shared by the per-type hygiene lint (`theta-lint` binary) and the
/// interprocedural taint pass.
pub const SECRET_TYPE_NAMES: &[&str] = &[
    "KeyShare",
    "DealtShare",
    "DkgOutput",
    "SigningNonce",
    // Transport handshake secrets (crates/network/src/handshake.rs):
    // the static-identity seed/scalar and the per-direction AEAD
    // session keys derived by the Noise-IK handshake.
    "IdentitySeed",
    "StaticIdentity",
    "SendCipher",
    "RecvCipher",
    // The keystore's storage key (crates/core/src/keymanager.rs): the
    // HKDF-derived symmetric key sealing tenant key shares at rest.
    "KeystoreKey",
];

/// Field names that carry secret scalars/bytes regardless of the
/// enclosing type's name: they mark their owning struct as
/// secret-bearing, and their direct comparison with `==`/`!=` is flagged
/// anywhere.
pub const SECRET_FIELDS: &[&str] =
    &["x_i", "s_i", "secret", "secret_share", "secret_key", "private_key"];
