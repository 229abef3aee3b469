//! The three benchmark workloads and the key/value encoding the driver
//! hands to the `Db`.

use wsi_core::IsolationLevel;
use wsi_store::{DbOptions, Durability};
use wsi_wal::LedgerConfig;
use wsi_workload::{KeyDistribution, Mix, WorkloadSpec};

/// Length of every stored value, in bytes.
pub const VALUE_LEN: usize = 100;

/// Key prefix; the row id follows as 8 big-endian bytes.
const KEY_PREFIX: &[u8; 4] = b"user";

/// Bits of a logical-transaction id that hold its per-origin sequence
/// number; the origin (0 = preload, 1 + thread index = a driver thread)
/// sits above them.
const ORIGIN_SHIFT: u32 = 48;

/// One workload: key space, key distribution, transaction mix, isolation,
/// durability, and the shape of the closed loop driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in reports.
    pub name: &'static str,
    /// Rows preloaded before the warm-up.
    pub rows: u64,
    /// How the generator picks rows.
    pub distribution: KeyDistribution,
    /// Transaction-type mix.
    pub mix: Mix,
    /// Isolation level the `Db` enforces.
    pub isolation: IsolationLevel,
    /// When commit records reach the WAL.
    pub durability: Durability,
    /// Driver threads.
    pub threads: usize,
    /// Logical clients stepped round-robin by each driver thread.
    pub clients: usize,
}

/// Every workload, in the order reports list them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "uniform-sync",
        rows: 1 << 19,
        distribution: KeyDistribution::Uniform,
        mix: Mix::Complex,
        isolation: IsolationLevel::WriteSnapshot,
        durability: Durability::Sync,
        threads: 1,
        clients: 16,
    },
    Workload {
        name: "zipf-mixed",
        rows: 100_000,
        distribution: KeyDistribution::Zipfian,
        mix: Mix::Mixed,
        isolation: IsolationLevel::WriteSnapshot,
        durability: Durability::None,
        threads: 2,
        clients: 2,
    },
    Workload {
        name: "latest-si",
        rows: 100_000,
        distribution: KeyDistribution::ZipfianLatest,
        mix: Mix::Complex,
        isolation: IsolationLevel::Snapshot,
        durability: Durability::Batched,
        threads: 1,
        clients: 4,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Default `DbOptions` plus this workload's isolation and durability.
    /// Both WAL modes use the 3-replica, quorum-2 ledger with the paper's
    /// 1 KB / 5 ms batch policy and no injected flush delay.
    pub fn options(&self) -> DbOptions {
        let options = DbOptions::new(self.isolation);
        match self.durability {
            Durability::None => options,
            Durability::Batched => options.durable_batched(LedgerConfig::default_replicated()),
            Durability::Sync => options.durable(LedgerConfig::default_replicated()),
        }
    }

    /// The generator parameters: the paper's `n ∈ U[0, 20]` rows per
    /// transaction and 20% inserts among zipfianLatest writes.
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            rows: self.rows,
            distribution: self.distribution,
            mix: self.mix,
            ..WorkloadSpec::paper_default()
        }
    }

    /// Whether the `Db` has a WAL, so durability can be checked.
    pub fn has_wal(&self) -> bool {
        self.durability != Durability::None
    }
}

/// The key of `row`: `user` followed by the row id, big-endian.
pub fn key(row: u64) -> [u8; 12] {
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(KEY_PREFIX);
    key[4..].copy_from_slice(&row.to_be_bytes());
    key
}

/// Logical-transaction id of sequence number `seq` from `origin`.
pub fn txn_id(origin: u64, seq: u64) -> u64 {
    (origin << ORIGIN_SHIFT) | seq
}

/// The value logical transaction `txn` writes to `row`: the transaction id
/// and the row id, big-endian, then filler derived from both. Every byte
/// depends on the writer, so a value read back names exactly one writer.
pub fn value(txn: u64, row: u64) -> [u8; VALUE_LEN] {
    let mut value = [0u8; VALUE_LEN];
    value[..8].copy_from_slice(&txn.to_be_bytes());
    value[8..16].copy_from_slice(&row.to_be_bytes());
    let seed = txn.rotate_left(17) ^ row;
    for (i, byte) in value[16..].iter_mut().enumerate() {
        *byte = (seed >> ((i % 8) * 8)) as u8 ^ i as u8;
    }
    value
}

/// The row id a stored value claims to belong to, if it is long enough.
pub fn value_row(value: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = value.get(8..16)?.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_writer_and_row() {
        let v = value(txn_id(2, 77), 9);
        assert_eq!(value_row(&v), Some(9));
        assert_ne!(v, value(txn_id(2, 78), 9));
        assert_ne!(v, value(txn_id(2, 77), 10));
    }

    #[test]
    fn keys_sort_by_row() {
        assert!(key(1) < key(2));
        assert!(key(255) < key(256));
        assert_eq!(&key(0)[..4], b"user");
    }
}
