//! A SQLite-like embedded database: B-tree table + write-ahead journal.
//!
//! Backs two paper workloads: the Fig. 5 SQLite case ("inserted 10k
//! random entries into a test database") and the Fig. 6 `sqlite-speedtest`
//! audit case. The B-tree is real (order-16, splits, ordered iteration);
//! every transaction journals to the WAL file and then writes the dirty
//! page, producing the paper-like 2-syscalls-per-insert pattern.

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_crypto::Drbg;
use veil_os::error::Errno;
use veil_os::sys::OpenFlags;

const ORDER: usize = 16;

/// An in-memory B-tree of fixed order with u64 keys and small row
/// payloads; mirrors SQLite's table tree.
#[derive(Debug, Default)]
pub struct BTree {
    root: Option<Box<Node>>,
    /// Number of keys stored.
    pub len: usize,
}

#[derive(Debug)]
struct Node {
    keys: Vec<u64>,
    rows: Vec<Vec<u8>>,
    children: Vec<Node>,
}

impl Node {
    fn leaf() -> Node {
        Node { keys: Vec::new(), rows: Vec::new(), children: Vec::new() }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    fn full(&self) -> bool {
        self.keys.len() >= 2 * ORDER - 1
    }
}

impl BTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces `key`.
    pub fn insert(&mut self, key: u64, row: Vec<u8>) {
        let mut root = match self.root.take() {
            Some(r) => r,
            None => Box::new(Node::leaf()),
        };
        if root.full() {
            let mut new_root = Node::leaf();
            new_root.children.push(*root);
            Self::split_child(&mut new_root, 0);
            root = Box::new(new_root);
        }
        if Self::insert_nonfull(&mut root, key, row) {
            self.len += 1;
        }
        self.root = Some(root);
    }

    fn split_child(parent: &mut Node, idx: usize) {
        let child = &mut parent.children[idx];
        let mid = ORDER - 1;
        let up_key = child.keys[mid];
        let up_row = child.rows[mid].clone();
        let mut right = Node::leaf();
        right.keys = child.keys.split_off(mid + 1);
        right.rows = child.rows.split_off(mid + 1);
        child.keys.pop();
        child.rows.pop();
        if !child.is_leaf() {
            right.children = child.children.split_off(mid + 1);
        }
        parent.keys.insert(idx, up_key);
        parent.rows.insert(idx, up_row);
        parent.children.insert(idx + 1, right);
    }

    fn insert_nonfull(node: &mut Node, key: u64, row: Vec<u8>) -> bool {
        match node.keys.binary_search(&key) {
            Ok(i) => {
                node.rows[i] = row;
                false
            }
            Err(i) => {
                if node.is_leaf() {
                    node.keys.insert(i, key);
                    node.rows.insert(i, row);
                    true
                } else {
                    let mut i = i;
                    if node.children[i].full() {
                        Self::split_child(node, i);
                        match node.keys.binary_search(&key) {
                            Ok(j) => {
                                node.rows[j] = row;
                                return false;
                            }
                            Err(j) => i = j,
                        }
                    }
                    Self::insert_nonfull(&mut node.children[i], key, row)
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        let mut node = self.root.as_deref()?;
        loop {
            match node.keys.binary_search(&key) {
                Ok(i) => return Some(&node.rows[i]),
                Err(i) => {
                    if node.is_leaf() {
                        return None;
                    }
                    node = &node.children[i];
                }
            }
        }
    }

    /// In-order visit of every (key, row).
    pub fn scan(&self, f: &mut dyn FnMut(u64, &[u8])) {
        if let Some(r) = &self.root {
            Self::scan_node(r, f);
        }
    }

    fn scan_node(node: &Node, f: &mut dyn FnMut(u64, &[u8])) {
        for i in 0..node.keys.len() {
            if !node.is_leaf() {
                Self::scan_node(&node.children[i], f);
            }
            f(node.keys[i], &node.rows[i]);
        }
        if !node.is_leaf() {
            Self::scan_node(node.children.last().expect("interior"), f);
        }
    }
}

/// Per-insert compute (B-tree bookkeeping, row encoding, SQL parse) —
/// calibrated so the shielded run lands near the paper's ~22k exits/s
/// and ~64% overhead for SQLite.
pub const INSERT_CYCLES: u64 = 40_000;

/// The Fig. 5 SQLite workload: N random inserts, journaled.
#[derive(Debug, Clone)]
pub struct SqliteWorkload {
    /// Rows to insert (paper: 10k).
    pub rows: usize,
}

impl Workload for SqliteWorkload {
    fn name(&self) -> &'static str {
        "SQLite"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let rows = self.rows;
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let mut tree = BTree::new();
            let mut drbg = Drbg::from_seed(b"sqlite-rows");
            let wal = sys.open("/data/test.db-wal", OpenFlags::wronly_create_trunc())?;
            let db = sys.open("/data/test.db", OpenFlags::rdwr_create())?;
            for i in 0..rows {
                let key = drbg.next_u64();
                let mut row = vec![0u8; 64];
                drbg.fill(&mut row);
                sys.burn(INSERT_CYCLES);
                tree.insert(key, row.clone());
                // WAL record then page write (2 syscalls / txn).
                let mut rec = Vec::with_capacity(76);
                rec.extend_from_slice(&(i as u32).to_le_bytes());
                rec.extend_from_slice(&key.to_le_bytes());
                rec.extend_from_slice(&row);
                sys.write(wal, &rec)?;
                let page_off = (key % 1024) * 76;
                sys.pwrite(db, &rec, page_off)?;
                stats.ops += 1;
                stats.bytes += rec.len() as u64;
            }
            // Verification scan: everything inserted is findable.
            let mut found = 0u64;
            tree.scan(&mut |k, row| {
                found += 1;
                stats.checksum = fnv1a(stats.checksum ^ k, row);
            });
            assert_eq!(found as usize, tree.len);
            sys.close(wal)?;
            sys.close(db)
        })?;
        Ok(stats)
    }
}

/// The Fig. 6 `sqlite-speedtest` audit workload: heavier per-op compute
/// (mixed query types), fewer audited writes per second (~2.3k/s).
#[derive(Debug, Clone)]
pub struct SqliteSpeedtestWorkload {
    /// Operations to run.
    pub ops: usize,
}

impl Workload for SqliteSpeedtestWorkload {
    fn name(&self) -> &'static str {
        "SQLite-speedtest"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let ops = self.ops;
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let mut tree = BTree::new();
            let mut drbg = Drbg::from_seed(b"speedtest");
            let db = sys.open("/data/speedtest.db", OpenFlags::rdwr_create())?;
            for i in 0..ops {
                // Each speedtest op = many internal queries, one write.
                for _ in 0..16 {
                    let key = drbg.next_u64() % 4096;
                    tree.insert(key, vec![(i & 0xff) as u8; 32]);
                    let _ = tree.get(drbg.next_u64() % 4096);
                }
                sys.burn(1_250_000);
                let mut page = vec![0u8; 256];
                drbg.fill(&mut page);
                sys.lseek(db, ((i as u64 % 512) * 256) as i64, veil_os::sys::Whence::Set)?;
                sys.write(db, &page)?;
                stats.ops += 1;
                stats.bytes += 256;
                stats.checksum = fnv1a(stats.checksum, &page);
            }
            sys.close(db)
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use veil_os::sys::Sys;
    use veil_testkit::prop::{check, tuple2, u64s, u8s, vecs};
    use veil_testkit::prop_assert_eq;

    #[test]
    fn btree_insert_get() {
        let mut t = BTree::new();
        for i in 0..1000u64 {
            t.insert(i * 7919 % 1000, vec![i as u8]);
        }
        assert!(t.len <= 1000);
        assert_eq!(t.get(7919 % 1000).map(|r| r[0]), Some(1));
        assert_eq!(t.get(123456), None);
    }

    #[test]
    fn btree_replace_does_not_grow() {
        let mut t = BTree::new();
        t.insert(5, vec![1]);
        t.insert(5, vec![2]);
        assert_eq!(t.len, 1);
        assert_eq!(t.get(5), Some(&[2u8][..]));
    }

    #[test]
    fn btree_scan_is_ordered() {
        let mut t = BTree::new();
        let keys = [50u64, 10, 90, 30, 70, 20, 80, 40, 60, 100];
        for k in keys {
            t.insert(k, k.to_le_bytes().to_vec());
        }
        let mut seen = Vec::new();
        t.scan(&mut |k, _| seen.push(k));
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(seen, sorted);
    }

    /// The B-tree agrees with a BTreeMap oracle on any insert stream.
    #[test]
    fn prop_btree_matches_oracle() {
        let entries = vecs(tuple2(u64s(0..500), u8s(0..255)), 1..400);
        check("prop_btree_matches_oracle", 64, &entries, |entries| {
            let mut tree = BTree::new();
            let mut oracle = BTreeMap::new();
            for (k, v) in &entries {
                tree.insert(*k, vec![*v]);
                oracle.insert(*k, vec![*v]);
            }
            prop_assert_eq!(tree.len, oracle.len());
            for (k, v) in &oracle {
                prop_assert_eq!(tree.get(*k), Some(v.as_slice()));
            }
            let mut scanned = Vec::new();
            tree.scan(&mut |k, row| scanned.push((k, row.to_vec())));
            let expect: Vec<(u64, Vec<u8>)> = oracle.into_iter().collect();
            prop_assert_eq!(scanned, expect);
            Ok(())
        });
    }

    #[test]
    fn sqlite_workload_runs() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let stats = SqliteWorkload { rows: 200 }.run(&mut d).unwrap();
        assert_eq!(stats.ops, 200);
        let mut sys = cvm.sys(pid);
        assert!(sys.stat("/data/test.db-wal").unwrap().size >= 200 * 76);
    }
}
