//! Storage nodes: a device, a FIFO service queue in virtual time and the
//! count of chunks the node hosts. The chunk payloads themselves live with
//! their object's metadata in [`StoreHandle`](crate::StoreHandle), row `i`
//! on the object's `i`-th placed node.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use rand::Rng;
use sprout_erasure::Chunk;

use crate::device::DeviceModel;
use crate::fifo::AtomicFifoQueue;

/// A storage node (OSD): it owns a device and serves chunk reads one at a
/// time in FIFO order.
///
/// Time is *virtual*: callers pass the arrival time of each read, and the
/// node's FIFO clock tracks when its device frees up, so queueing delay
/// emerges naturally without a real-time event loop.
///
/// Every field a read touches is an atomic, so concurrent readers share a
/// node through `&self` without a lock: the online flag and queue delay are
/// plain loads, and a read is one compare-and-swap of the clock plus two
/// counter updates. The counters are `Relaxed`: each is exact on its own,
/// and no reader infers one from another.
#[derive(Debug)]
pub struct StorageNode {
    device: DeviceModel,
    hosted: AtomicUsize,
    queue: AtomicFifoQueue,
    reads_served: AtomicU64,
    online: AtomicBool,
}

impl StorageNode {
    /// Creates an empty, online node.
    pub(crate) fn new(device: DeviceModel) -> Self {
        StorageNode {
            device,
            hosted: AtomicUsize::new(0),
            queue: AtomicFifoQueue::default(),
            reads_served: AtomicU64::new(0),
            online: AtomicBool::new(true),
        }
    }

    /// Whether the node is currently serving requests.
    pub(crate) fn is_online(&self) -> bool {
        self.online.load(Ordering::Relaxed)
    }

    /// Marks the node as failed (offline) or recovered (online).
    pub(crate) fn set_online(&self, online: bool) {
        self.online.store(online, Ordering::Relaxed);
    }

    /// Counts a chunk placed on this node.
    pub(crate) fn host_chunk(&self) {
        self.hosted.fetch_add(1, Ordering::Relaxed);
    }

    /// Uncounts a chunk removed from this node.
    pub(crate) fn release_chunk(&self) {
        self.hosted.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total number of chunks hosted on the node.
    pub fn num_chunks(&self) -> usize {
        self.hosted.load(Ordering::Relaxed)
    }

    /// Queueing delay a request arriving at `now` would experience before its
    /// service starts.
    pub fn queue_delay(&self, now: f64) -> f64 {
        self.queue.queue_delay(now)
    }

    /// Serves a read of `chunk` (hosted here) arriving at `now`.
    ///
    /// Returns the virtual completion time, or `None` if the node is
    /// offline. Service time is sampled from the device model for the
    /// chunk's size, and the node's FIFO queue advances accordingly.
    pub(crate) fn read<R: Rng + ?Sized>(
        &self,
        chunk: &Chunk,
        now: f64,
        rng: &mut R,
    ) -> Option<f64> {
        if !self.is_online() {
            return None;
        }
        let service = self
            .device
            .service_distribution(chunk.len() as u64)
            .sample(rng);
        self.reads_served.fetch_add(1, Ordering::Relaxed);
        Some(self.queue.serve(now, service))
    }

    /// Number of chunk reads served so far.
    pub fn reads_served(&self) -> u64 {
        self.reads_served.load(Ordering::Relaxed)
    }

    /// Fraction of `[0, horizon]` the device spent serving reads.
    pub fn utilization(&self, horizon: f64) -> f64 {
        self.queue.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sprout_erasure::ChunkId;

    fn chunk(index: usize, len: usize) -> Chunk {
        Chunk::new(ChunkId::storage(index), vec![7u8; len])
    }

    #[test]
    fn store_read_and_remove() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let node = StorageNode::new(DeviceModel::exponential(0.01));
        for _ in 0..3 {
            node.host_chunk();
        }
        assert_eq!(node.num_chunks(), 3);

        let done = node.read(&chunk(0, 100), 5.0, &mut rng).unwrap();
        assert!(done > 5.0);
        assert_eq!(node.reads_served(), 1);

        node.release_chunk();
        node.release_chunk();
        assert_eq!(node.num_chunks(), 1);
    }

    #[test]
    fn fifo_queue_accumulates_delay() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let node = StorageNode::new(DeviceModel::exponential(1.0));
        let c = chunk(0, 10);
        // two back-to-back reads at the same instant: the second waits for the first
        let done1 = node.read(&c, 0.0, &mut rng).unwrap();
        assert!(node.queue_delay(0.0) > 0.0);
        let done2 = node.read(&c, 0.0, &mut rng).unwrap();
        assert!(done2 > done1);
        // a read arriving after the queue drains starts immediately
        let later = done2 + 100.0;
        assert_eq!(node.queue_delay(later), 0.0);
        let done3 = node.read(&c, later, &mut rng).unwrap();
        assert!(done3 > later);
        assert!(node.utilization(done3) > 0.0);
    }

    #[test]
    fn offline_node_serves_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let node = StorageNode::new(DeviceModel::ssd());
        let c = chunk(0, 10);
        node.set_online(false);
        assert!(!node.is_online());
        assert!(node.read(&c, 0.0, &mut rng).is_none());
        assert_eq!(node.reads_served(), 0);
        node.set_online(true);
        assert!(node.read(&c, 0.0, &mut rng).is_some());
    }

    #[test]
    fn utilization_is_bounded() {
        let node = StorageNode::new(DeviceModel::ssd());
        assert_eq!(node.utilization(0.0), 0.0);
        assert_eq!(node.utilization(10.0), 0.0);
    }
}
