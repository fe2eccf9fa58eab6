//! Storage nodes: chunk storage plus a FIFO service queue in virtual time.

use std::collections::HashMap;

use rand::Rng;
use sprout_erasure::Chunk;

use crate::device::DeviceModel;
use crate::fifo::FifoQueue;

/// A storage node (OSD): it owns a device, stores chunk payloads and serves
/// read requests one at a time in FIFO order.
///
/// Time is *virtual*: callers pass the arrival time of each read, and the
/// node's [`FifoQueue`] tracks when its device frees up, so queueing delay
/// emerges naturally without a real-time event loop.
#[derive(Debug, Clone)]
pub struct StorageNode {
    id: usize,
    device: DeviceModel,
    chunks: HashMap<(u64, usize), Chunk>,
    queue: FifoQueue,
    reads_served: u64,
    online: bool,
}

impl StorageNode {
    /// Creates an empty, online node.
    pub fn new(id: usize, device: DeviceModel) -> Self {
        StorageNode {
            id,
            device,
            chunks: HashMap::new(),
            queue: FifoQueue::default(),
            reads_served: 0,
            online: true,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's device model.
    pub fn device(&self) -> DeviceModel {
        self.device
    }

    /// Whether the node is currently serving requests.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Marks the node as failed (offline) or recovered (online).
    pub(crate) fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Stores a chunk of an object on this node (overwrites an existing one).
    pub(crate) fn store_chunk(&mut self, object: u64, chunk: Chunk) {
        self.chunks.insert((object, chunk.id.index), chunk);
    }

    /// Removes every chunk of the given object; returns how many were removed.
    pub(crate) fn remove_object(&mut self, object: u64) -> usize {
        let keys: Vec<_> = self
            .chunks
            .keys()
            .filter(|(o, _)| *o == object)
            .cloned()
            .collect();
        for key in &keys {
            self.chunks.remove(key);
        }
        keys.len()
    }

    /// Whether the node holds the chunk with the given generator-row index.
    pub(crate) fn has_chunk(&self, object: u64, index: usize) -> bool {
        self.chunks.contains_key(&(object, index))
    }

    /// Borrows a stored chunk without touching the service queue or
    /// statistics (management paths; simulated reads go through
    /// [`StorageNode::read`]).
    pub fn chunk(&self, object: u64, index: usize) -> Option<&Chunk> {
        self.chunks.get(&(object, index))
    }

    /// The stored chunk indices for an object, in ascending order.
    pub(crate) fn chunk_indices(&self, object: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .chunks
            .keys()
            .filter(|(o, _)| *o == object)
            .map(|(_, idx)| *idx)
            .collect();
        v.sort_unstable();
        v
    }

    /// Total number of chunks stored on the node.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Queueing delay a request arriving at `now` would experience before its
    /// service starts.
    pub(crate) fn queue_delay(&self, now: f64) -> f64 {
        self.queue.queue_delay(now)
    }

    /// Serves a chunk read arriving at `now`.
    ///
    /// Returns the chunk and the virtual completion time, or `None` if the
    /// node is offline or does not hold the chunk. Service time is sampled
    /// from the device model for the chunk's size, and the node's FIFO queue
    /// advances accordingly.
    ///
    /// The returned chunk *shares* the stored payload (`Bytes` is
    /// `Arc`-backed): handing it out is a refcount bump, not a byte copy.
    pub fn read<R: Rng + ?Sized>(
        &mut self,
        object: u64,
        index: usize,
        now: f64,
        rng: &mut R,
    ) -> Option<(Chunk, f64)> {
        if !self.online {
            return None;
        }
        let chunk = self.chunks.get(&(object, index))?.clone();
        let service = self
            .device
            .service_distribution(chunk.len() as u64)
            .sample(rng);
        let done = self.queue.serve(now, service);
        self.reads_served += 1;
        Some((chunk, done))
    }

    /// Number of chunk reads served so far.
    pub fn reads_served(&self) -> u64 {
        self.reads_served
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
        let mut node = StorageNode::new(3, DeviceModel::exponential(0.01));
        assert_eq!(node.id(), 3);
        node.store_chunk(10, chunk(0, 100));
        node.store_chunk(10, chunk(2, 100));
        node.store_chunk(11, chunk(1, 100));
        assert_eq!(node.num_chunks(), 3);
        assert!(node.has_chunk(10, 0));
        assert!(!node.has_chunk(10, 1));
        assert_eq!(node.chunk_indices(10), vec![0, 2]);

        let (c, done) = node.read(10, 0, 5.0, &mut rng).unwrap();
        assert_eq!(c.id.index, 0);
        assert!(done > 5.0);
        assert_eq!(node.reads_served(), 1);

        assert_eq!(node.remove_object(10), 2);
        assert_eq!(node.num_chunks(), 1);
        assert!(node.read(10, 0, 6.0, &mut rng).is_none());
    }

    #[test]
    fn fifo_queue_accumulates_delay() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut node = StorageNode::new(0, DeviceModel::exponential(1.0));
        node.store_chunk(1, chunk(0, 10));
        // two back-to-back reads at the same instant: the second waits for the first
        let (_, done1) = node.read(1, 0, 0.0, &mut rng).unwrap();
        assert!(node.queue_delay(0.0) > 0.0);
        let (_, done2) = node.read(1, 0, 0.0, &mut rng).unwrap();
        assert!(done2 > done1);
        // a read arriving after the queue drains starts immediately
        let later = done2 + 100.0;
        assert_eq!(node.queue_delay(later), 0.0);
        let (_, done3) = node.read(1, 0, later, &mut rng).unwrap();
        assert!(done3 > later);
        assert!(node.utilization(done3) > 0.0);
    }

    #[test]
    fn offline_node_serves_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut node = StorageNode::new(0, DeviceModel::ssd());
        node.store_chunk(1, chunk(0, 10));
        node.set_online(false);
        assert!(!node.is_online());
        assert!(node.read(1, 0, 0.0, &mut rng).is_none());
        node.set_online(true);
        assert!(node.read(1, 0, 0.0, &mut rng).is_some());
    }

    #[test]
    fn utilization_is_bounded() {
        let node = StorageNode::new(0, DeviceModel::ssd());
        assert_eq!(node.utilization(0.0), 0.0);
        assert_eq!(node.utilization(10.0), 0.0);
    }

    #[test]
    fn read_shares_the_stored_payload_without_copying() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut node = StorageNode::new(0, DeviceModel::ssd());
        node.store_chunk(1, chunk(0, 64));
        let stored_ptr = node.chunk(1, 0).unwrap().data.as_ptr();
        let (served, _) = node.read(1, 0, 0.0, &mut rng).unwrap();
        assert_eq!(
            served.data.as_ptr(),
            stored_ptr,
            "a served chunk must alias the stored allocation (refcount bump, not a copy)"
        );
    }
}
