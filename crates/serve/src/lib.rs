//! # milo-serve
//!
//! Synthesis-as-a-service: a long-lived daemon wrapping the MILO flow
//! engine behind a plain TCP/JSON-lines protocol — no async runtime,
//! just `std` sockets, a thread-per-connection front end, and a fixed
//! pool of synthesis workers draining a condvar-signaled job queue.
//!
//! Each job runs on its own fresh [`milo_core::Milo`], exactly as an
//! offline run would. The service adds two things the offline driver
//! doesn't have:
//!
//! * **fingerprint-keyed result caching** ([`ResultCache`]): an exact
//!   tier (structure ⊕ constraints → replay stored bytes) and a
//!   prefix tier (structure ⊕ tightest delay → resume from the first
//!   constraint-dirty pass);
//! * **streaming progress**: jobs submitted with `"stream": true` get
//!   the engine's `FlowEvent`s bridged onto their connection as JSON
//!   lines.
//!
//! Since protocol v1.1 the service is also **bounded, persistent, and
//! fair**: the cache evicts least-recently-used entries to stay under
//! a byte budget (`--cache-bytes`), evicted or stored exact results
//! spill to a disk store (`--cache-dir`) that warm-starts the next
//! boot, and the FIFO queue is replaced by a priority + per-client
//! weighted-round-robin [`Scheduler`] so one client's backlog can't
//! starve another's interactive submit.
//!
//! Determinism is the service's core contract: a job's result JSON is
//! byte-identical to an offline `synthesize_batch_results` run of the
//! same design and constraints on a fresh `Milo`, regardless of
//! arrival order, worker count, or cache state; no earlier job can
//! change its output. See `docs/SERVICE.md` for the protocol grammar
//! and ops knobs.
//!
//! # Examples
//!
//! ```
//! use milo_serve::{spawn, Client, ServerConfig, SubmitOptions};
//! use milo_core::Constraints;
//! use milo_techmap::ecl_library;
//!
//! let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1))?;
//! let mut client = Client::connect(handle.addr())?;
//! let job = client.submit_with(
//!     "design demo\ninput a b\noutput y\ncomp and2 g1 A0=a A1=b Y=y\n",
//!     &Constraints::none(),
//!     &SubmitOptions::new(),
//! )?;
//! let result = client.result(job)?;
//! assert_eq!(result.get("state").and_then(|s| s.as_str()), Some("done"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Service code must never die on a poisoned lock or an unexpected
// `None` — a panic in one handler is an outage for every connection.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod disk;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod scheduler;

mod client;
mod server;

pub use cache::{job_key, prefix_key, CacheStats, CachedResult, HitTier, ResultCache};
pub use client::{Client, ClientError, SubmitOptions};
pub use disk::DiskCache;
pub use json::{parse as parse_json, JsonError, Value};
pub use metrics::Metrics;
pub use protocol::{constraints_to_json, parse_request, Priority, Request, PROTOCOL_VERSION};
pub use scheduler::{QueueStats, Scheduler, WorkUnit};
pub use server::{spawn, CacheOutcome, ServerConfig, ServerHandle};
