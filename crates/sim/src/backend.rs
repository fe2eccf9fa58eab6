//! The byte-settlement seam of the simulation engine.
//!
//! The engine owns the whole model: arrivals, cache planning, scheduling,
//! and every storage node (FIFO queue, service-time stream, online flag). A
//! [`ChunkBackend`] settles only what the model cannot — whether the chosen
//! chunks really reconstruct the object, and cache-device read times — in
//! the arrival's step, against the cache contents the request was planned
//! with. The engine's [`SimReport`](crate::SimReport) is the only account
//! of a run: every settlement it asks for is one completed request, and
//! each `false` is one of its `reconstruction_failures`.
//!
//! [`Simulation::run`](crate::Simulation::run) settles nothing (every
//! default hook applies); `StoreBackend` (in the `sprout` facade crate)
//! settles on the real store: coded bytes, degraded reads and a decode +
//! verify per request. All planning and node service draws are the engine's,
//! so both make **identical chunk-source decisions** on one seed — the
//! differential-testing hook the byte-accurate backend exists for.

use crate::policy::CacheScheme;

/// What a planned request looked like to the engine, handed to the backend
/// for byte-level settlement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedRequest<'a> {
    /// Index of the requested file.
    pub file: usize,
    /// Chunks served by the compute-server cache.
    pub cache_chunks: usize,
    /// Storage nodes that served one chunk each.
    pub storage_nodes: &'a [usize],
}

/// The byte-level substrate behind the event loop.
pub trait ChunkBackend {
    /// Number of storage nodes (checked against the simulation's).
    fn num_nodes(&self) -> usize;

    /// Settles a request. The engine calls it when it plans the request,
    /// right after queueing its reads (whose finish times are then known),
    /// so the cache holds what the plan counted on. Byte-accurate backends
    /// fetch the chunks the engine chose, decode and verify; the return
    /// value is `false` when reconstruction failed (counted in the report).
    fn finish_request(&mut self, request: FinishedRequest<'_>) -> bool {
        let _ = request;
        true
    }

    /// Latency of serving `chunks` cache chunks of `file`, or `None` to fall
    /// back to the engine's configured constant cache-read latency. Byte
    /// backends sample their cache device model (the SSD of Table V) here,
    /// from their own RNG, so it never influences the engine's planning
    /// decisions or node service draws.
    fn sample_cache_read(&mut self, file: usize, chunks: usize) -> Option<f64> {
        let _ = (file, chunks);
        None
    }

    /// Applies a new cache scheme mid-run (a scenario plan swap). Byte
    /// backends re-install cached chunks to match.
    fn apply_scheme(&mut self, scheme: &CacheScheme) {
        let _ = scheme;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_finish_request_always_succeeds() {
        let mut b = crate::engine::Abstract(1);
        assert!(b.finish_request(FinishedRequest {
            file: 0,
            cache_chunks: 1,
            storage_nodes: &[0],
        }));
        b.apply_scheme(&CacheScheme::NoCache); // default no-op must not panic

        // The default defers cache latency to the engine.
        assert_eq!(b.sample_cache_read(0, 2), None);
    }
}
