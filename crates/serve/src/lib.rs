//! `cablevod-serve`: the engine as a long-running online
//! admission/placement service.
//!
//! Offline, the simulator answers "what would the plant have done" by
//! replaying a finished trace. This crate answers the paper's deployment
//! question directly — can a head-end admit and place VoD sessions for a
//! whole plant *in real time*? — by standing the same engine up as a
//! persistent service with three tiers:
//!
//! * **Ingress tier** ([`clock`], [`server::IngressQueue`]) — a
//!   [`ClockSource`] seam ([`WallClock`] for production pacing,
//!   [`AcceleratedClock`] for tests and benches) plus a bounded admission
//!   queue with explicit overload shedding. Sessions arrive either by
//!   replaying a `.cvtc` trace against the clock ([`replay`]) or as
//!   newline-framed requests over a TCP/Unix socket ([`server`]).
//! * **Decision tier** (`cablevod_sim::engine::online`) — the one
//!   `SessionDriver` lifecycle, over the whole plant, stepped
//!   cooperatively against the live clock. All nine registry strategies,
//!   fault plans, and enforcing admission/retry run unchanged, and the
//!   final report is byte-identical to the offline replay.
//! * **Front tier** ([`cache`], [`hist`]) — a repeat-lookup
//!   [`ResponseCache`] with epoch-based invalidation and per-request
//!   [`LatencyHistogram`]s (p50/p99/p999), plus a drain-on-SIGTERM path
//!   that flushes a final `SimReport` so online and offline accounting
//!   stay comparable.
//!
//! # Wire protocol
//!
//! The socket protocol is line-oriented UTF-8: one request per line
//! (terminated by `\n`), one reply line per request, in order, per
//! connection. Fields are space-separated decimal integers. A connection
//! whose pending line grows past [`server::MAX_LINE`] bytes without a
//! `\n` gets `ERR line too long` and is closed.
//!
//! ## Requests
//!
//! | Request | Meaning |
//! |---|---|
//! | `SESSION <user> <program> <duration_secs> [<offset_secs>]` | Ask to start a session. The server stamps the arrival with its clock. |
//! | `LOOKUP <nbhd> <program>` | Where is `program` placed in neighborhood `nbhd` right now? |
//! | `STATS` | Service counters snapshot. |
//!
//! ## Replies
//!
//! | Reply | Meaning |
//! |---|---|
//! | `ADMITTED <gidx>` | The session was queued for the decision tier with global index `gidx`. |
//! | `OVERLOADED` | The admission queue was full; the request was **shed** — counted, never silently dropped, never blocked. |
//! | `PLACED <epoch> <peer>` | The program's first segment is cached on `peer`; answer valid as of placement `epoch`. |
//! | `ABSENT <epoch>` | The program is not currently placed in that neighborhood, as of `epoch`. |
//! | `STATS <json>` | One JSON object of service counters. |
//! | `ERR <reason>` | The request was malformed or violated the ordering contract. |
//!
//! ## Epoch semantics
//!
//! The decision tier's placement epoch increments whenever an advance
//! processed at least one event (a conservative over-approximation of
//! "placement changed"). `PLACED`/`ABSENT` replies carry the epoch they
//! were computed at; the front tier's [`ResponseCache`] stores answers
//! stamped with it and **never** serves an entry whose epoch is older
//! than current — stale entries fall through to the decision tier and
//! are re-filled. The property test in `tests/serve.rs` pins this under
//! randomized interleavings.
//!
//! ## Shed and drain behavior
//!
//! `SESSION` requests beyond the ingress queue's capacity are answered
//! `OVERLOADED` immediately (back-pressure is explicit; the accept loop
//! never blocks on the decision tier) and counted in the final stats as
//! `shed`. On SIGTERM/SIGINT the server stops accepting work, drains the
//! admission queue through the decision tier, answers every in-flight
//! request, and writes one final JSON line
//! `{"serve": {...counters...}, "report": {...}}` where `report` is the
//! canonical `SimReport` encoding (`cablevod_sim::report_to_json_string`)
//! — byte-comparable with offline runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod hist;
pub mod replay;
pub mod server;

pub use cache::ResponseCache;
pub use clock::{AcceleratedClock, ClockSource, WallClock};
pub use hist::LatencyHistogram;
pub use replay::{replay_trace, ReplayOutcome};
pub use server::{IngressQueue, ServeStats, Server, ServerConfig};
