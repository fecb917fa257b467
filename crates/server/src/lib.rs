//! The serving layer: a long-lived, multi-tenant query service over the
//! Alexander engine.
//!
//! The design splits reads from writes completely:
//!
//! * **Epochs** ([`epoch`]): every committed batch publishes a new immutable
//!   [`Epoch`] — a generation counter plus an [`Engine`] over a frozen,
//!   copy-on-write clone of the EDB. A query *pins* the epoch it started on
//!   and evaluates against it for its whole lifetime, so reads never block
//!   writes and a commit never invalidates a running query.
//! * **Writer** ([`service`]): mutations funnel through one writer holding
//!   one EDB — a [`DurableStore`]'s (WAL append + fsync, then apply) when
//!   the server was opened with a snapshot/WAL pair, an in-memory
//!   `Database` otherwise. `COMMIT` applies the batch, then publishes that
//!   EDB as the next epoch. The writer derives nothing: queries evaluate
//!   goal-directed over their pinned epoch.
//! * **Admission** ([`admission`]): a global cap bounds concurrently
//!   executing queries and a per-tenant cap keeps one tenant's recursive
//!   query storm from starving the rest; a bounded wait queue sheds
//!   overload with `ERR BUSY retry-after-ms=<hint>`; each admitted query
//!   runs under the service's [`Budget`].
//! * **Health** ([`health`]): when the durable writer poisons, the service
//!   degrades to read-only (`ERR DEGRADED <reason>` on mutations, reads
//!   keep serving the last published epoch) and a supervisor thread heals
//!   it with bounded jittered backoff, republishing from disk truth.
//! * **Wire protocol** ([`proto`], [`net`]): a line-oriented text protocol
//!   over TCP or a unix socket (`HELLO`/`QUERY`/`INSERT`/`DELETE`/`COMMIT`/
//!   `EPOCH`/`HEALTH`/`PING`/`QUIT`), served by the `alexander serve`
//!   subcommand — with per-session idle/write deadlines, bounded request
//!   lines and reply buffers, and structured session teardown.
//!
//! [`Engine`]: alexander_core::Engine
//! [`Epoch`]: epoch::Epoch
//! [`DurableStore`]: alexander_durable::DurableStore
//! [`Budget`]: alexander_eval::Budget

pub mod admission;
pub mod epoch;
#[cfg(feature = "failpoints")]
pub mod faults;
pub mod health;
pub mod net;
pub mod proto;
pub mod service;

pub use admission::{Admission, AdmissionGuard, Busy};
pub use epoch::{Epoch, EpochStore};
pub use health::{Health, ServerState};
pub use net::{serve_tcp, serve_unix, NetStats, ServeHandle, SessionEnd};
pub use proto::Request;
pub use service::{CommitInfo, QueryResponse, QueryService, ServerConfig, ServerError};
