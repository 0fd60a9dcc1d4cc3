//! `mec-serve`: a long-running online admission daemon for the vnfrel
//! schedulers, plus the load generators that drive it.
//!
//! The batch engine (`mec-sim`) replays a whole trace in one call; this
//! crate runs the *same* schedulers against live traffic. Clients submit
//! requests over line-delimited JSON on TCP ([`protocol`]), one at a
//! time or in v3 batch frames. One serving pipeline ([`daemon`]) carries
//! every request: an accept thread, a worker pool that parses and
//! routes, one bounded queue per shard, and one decide loop per shard
//! that owns its scheduler, dual prices and capacity ledger. Decisions
//! stream back with full reject reasons and placement sites.
//!
//! With one shard the daemon is the paper's single decision maker and
//! decides bit-identically to the batch engine; it can persist its
//! state crash-consistently ([`snapshot`]) so a killed process resumes
//! the decision stream byte for byte, and replicate its decision log to
//! a standby ([`replica`]). With S > 1 shards ([`shard`]) the cloudlets
//! are partitioned for throughput. Every shard count exposes Prometheus
//! metrics over `GET /metrics` and live state over `GET /status`, heals
//! a panicked decide loop from its recovery log, and drains cleanly on
//! SIGINT/SIGTERM or a `shutdown` control message.
//!
//! Everything is `std`-only: `std::net` sockets, `Mutex`/`Condvar`
//! bounded queues ([`pool`]), scoped threads. See DESIGN.md §12 for the
//! architecture and EXPERIMENTS.md for the throughput methodology.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod daemon;
pub mod epoch;
mod error;
pub mod flight;
pub mod loadgen;
pub mod pool;
pub mod protocol;
pub mod referee;
pub mod replica;
pub mod shard;
pub mod snapshot;
pub mod status;
mod tap;

pub mod metrics;

pub use chaos::{
    full_jitter_backoff, ChaosConfig, ChaosPlan, ChaosProxy, ChaosSnapshotIo, NetFault,
    RealSnapshotIo, SnapshotIo, SnapshotStep,
};
pub use daemon::{serve, Role, ServeConfig, ServeReport};
pub use epoch::{Epoch, FenceCheck};
pub use error::ServeError;
pub use flight::{FlightRecorder, SharedFlight, FLIGHT_CAPACITY};
pub use loadgen::{
    run_loadgen, run_open_loop, LatencySummary, LoadgenConfig, LoadgenReport, OpenLoopConfig,
    OpenLoopReport,
};
pub use metrics::{ServeMetricIds, ShardLaneIds, StageIds, STAGE_LATENCY_BUCKETS};
pub use protocol::{
    encode_batch_into, encode_batch_reply_into, encode_client, encode_server, encode_server_into,
    is_batch_frame, is_batch_reply, parse_batch_into, parse_batch_reply_into, parse_client,
    parse_server, ClientMsg, ControlAck, ControlAction, OverloadReject, ServeStats, ServerMsg,
    SubmitRequest, BATCH_ADMIT, BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT, MAX_BATCH,
    MAX_LINE_BYTES, PROTOCOL_VERSION,
};
pub use referee::{AckRecord, ChaosArtifacts, RefereeInvariant, RefereeReport, RefereeViolation};
pub use replica::{encode_repl, parse_repl, ReplMsg};
pub use shard::{serve_sharded, ShardedConfig, ShardedReport};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use status::{now_unix_ms, StatusShared};
pub use tap::DecisionTap;
