//! In-memory virtual filesystem.
//!
//! Backs the file-related syscalls. The paper's workloads hammer the VFS
//! (lighttpd serving 10 KB files, SQLite journaling, gzip streaming), so
//! the structure is a real inode tree rather than a string map: hard
//! links, directories, symlinks with loop detection, and byte-granular
//! read/write/truncate.

use crate::error::Errno;
use std::collections::BTreeMap;

/// Inode number.
pub type Ino = usize;

const SYMLINK_DEPTH_LIMIT: usize = 8;
/// Maximum path component length (matches Linux's NAME_MAX spirit).
pub const NAME_MAX: usize = 255;
/// Largest file the VFS holds, 64 times the largest workload file
/// (perfbench's 4 MiB GZip input). Writes and truncations past it fail
/// with `EFBIG`, as Linux does past a filesystem's maximum file size.
pub const MAX_FILE_SIZE: usize = 256 << 20;

#[derive(Debug, Clone)]
enum InodeKind {
    File { data: Vec<u8> },
    Dir { entries: BTreeMap<String, Ino> },
    Symlink { target: String },
}

/// One filesystem object.
#[derive(Debug, Clone)]
pub struct Inode {
    kind: InodeKind,
    /// POSIX permission bits (checked loosely; the simulated system is
    /// single-user but chmod/fchmod must round-trip for audit workloads).
    pub mode: u32,
    /// Hard-link count.
    pub nlink: u32,
}

impl Inode {
    /// File size in bytes (0 for directories).
    pub fn size(&self) -> usize {
        match &self.kind {
            InodeKind::File { data } => data.len(),
            InodeKind::Symlink { target } => target.len(),
            InodeKind::Dir { .. } => 0,
        }
    }

    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, InodeKind::Dir { .. })
    }
}

/// The filesystem.
#[derive(Debug, Clone)]
pub struct Vfs {
    inodes: Vec<Option<Inode>>,
}

/// Root directory inode number.
pub const ROOT_INO: Ino = 0;

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// A filesystem containing only `/`.
    pub fn new() -> Self {
        let root =
            Inode { kind: InodeKind::Dir { entries: BTreeMap::new() }, mode: 0o755, nlink: 2 };
        Vfs { inodes: vec![Some(root)] }
    }

    fn get(&self, ino: Ino) -> Result<&Inode, Errno> {
        self.inodes.get(ino).and_then(|i| i.as_ref()).ok_or(Errno::ENOENT)
    }

    fn get_mut(&mut self, ino: Ino) -> Result<&mut Inode, Errno> {
        self.inodes.get_mut(ino).and_then(|i| i.as_mut()).ok_or(Errno::ENOENT)
    }

    fn alloc(&mut self, inode: Inode) -> Ino {
        for (i, slot) in self.inodes.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(inode);
                return i;
            }
        }
        self.inodes.push(Some(inode));
        self.inodes.len() - 1
    }

    /// Public inode accessor (stat).
    pub fn inode(&self, ino: Ino) -> Result<&Inode, Errno> {
        self.get(ino)
    }

    fn split_path(path: &str) -> Result<Vec<&str>, Errno> {
        if !path.starts_with('/') {
            return Err(Errno::EINVAL);
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty() && *c != ".").collect();
        for c in &comps {
            if c.len() > NAME_MAX {
                return Err(Errno::ENAMETOOLONG);
            }
        }
        Ok(comps)
    }

    /// Resolves an absolute path to an inode, following symlinks.
    pub fn resolve(&self, path: &str) -> Result<Ino, Errno> {
        self.resolve_depth(path, 0)
    }

    fn resolve_depth(&self, path: &str, depth: usize) -> Result<Ino, Errno> {
        if depth > SYMLINK_DEPTH_LIMIT {
            return Err(Errno::EINVAL);
        }
        let comps = Self::split_path(path)?;
        let mut cur = ROOT_INO;
        let mut stack: Vec<Ino> = vec![ROOT_INO];
        for (i, comp) in comps.iter().enumerate() {
            if *comp == ".." {
                stack.pop();
                cur = stack.last().copied().unwrap_or(ROOT_INO);
                continue;
            }
            let node = self.get(cur)?;
            let entries = match &node.kind {
                InodeKind::Dir { entries } => entries,
                _ => return Err(Errno::ENOTDIR),
            };
            let next = *entries.get(*comp).ok_or(Errno::ENOENT)?;
            // Follow symlinks (even mid-path).
            if let InodeKind::Symlink { target } = &self.get(next)?.kind {
                let rest: String = comps[i + 1..].join("/");
                let full = if rest.is_empty() {
                    target.clone()
                } else {
                    format!("{}/{}", target.trim_end_matches('/'), rest)
                };
                return self.resolve_depth(&full, depth + 1);
            }
            cur = next;
            stack.push(cur);
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(Ino, &'p str), Errno> {
        let comps = Self::split_path(path)?;
        let name = *comps.last().ok_or(Errno::EINVAL)?;
        if name == ".." {
            return Err(Errno::EINVAL);
        }
        let parent_path = if comps.len() == 1 {
            "/".to_string()
        } else {
            format!("/{}", comps[..comps.len() - 1].join("/"))
        };
        let parent = self.resolve(&parent_path)?;
        Ok((parent, name))
    }

    /// Creates a regular file; fails if it exists.
    pub fn create(&mut self, path: &str, mode: u32) -> Result<Ino, Errno> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name).is_ok() {
            return Err(Errno::EEXIST);
        }
        let ino = self.alloc(Inode { kind: InodeKind::File { data: Vec::new() }, mode, nlink: 1 });
        self.dir_insert(parent, name, ino)?;
        Ok(ino)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> Result<Ino, Errno> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name).is_ok() {
            return Err(Errno::EEXIST);
        }
        let ino =
            self.alloc(Inode { kind: InodeKind::Dir { entries: BTreeMap::new() }, mode, nlink: 2 });
        self.dir_insert(parent, name, ino)?;
        Ok(ino)
    }

    /// Creates a symlink at `path` pointing to `target`.
    pub fn symlink(&mut self, path: &str, target: &str) -> Result<Ino, Errno> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name).is_ok() {
            return Err(Errno::EEXIST);
        }
        let ino = self.alloc(Inode {
            kind: InodeKind::Symlink { target: target.to_string() },
            mode: 0o777,
            nlink: 1,
        });
        self.dir_insert(parent, name, ino)?;
        Ok(ino)
    }

    /// Creates a hard link `new_path` to the file at `existing`.
    pub fn link(&mut self, existing: &str, new_path: &str) -> Result<(), Errno> {
        let ino = self.resolve(existing)?;
        if self.get(ino)?.is_dir() {
            return Err(Errno::EPERM);
        }
        let (parent, name) = self.resolve_parent(new_path)?;
        if self.dir_lookup(parent, name).is_ok() {
            return Err(Errno::EEXIST);
        }
        self.dir_insert(parent, name, ino)?;
        self.get_mut(ino)?.nlink += 1;
        Ok(())
    }

    /// Removes a file or symlink (not a directory).
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let (parent, name) = self.resolve_parent(path)?;
        let ino = self.dir_lookup(parent, name)?;
        if self.get(ino)?.is_dir() {
            return Err(Errno::EISDIR);
        }
        self.dir_remove(parent, name)?;
        let node = self.get_mut(ino)?;
        node.nlink -= 1;
        if node.nlink == 0 {
            self.inodes[ino] = None;
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        let (parent, name) = self.resolve_parent(path)?;
        let ino = self.dir_lookup(parent, name)?;
        match &self.get(ino)?.kind {
            InodeKind::Dir { entries } if entries.is_empty() => {}
            InodeKind::Dir { .. } => return Err(Errno::ENOTEMPTY),
            _ => return Err(Errno::ENOTDIR),
        }
        self.dir_remove(parent, name)?;
        self.inodes[ino] = None;
        Ok(())
    }

    /// Renames (moves) `from` to `to`, replacing a non-directory target.
    /// Renaming a file onto itself (or onto another hard link of itself)
    /// is a successful no-op, per POSIX.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let ino = self.dir_lookup(from_parent, from_name)?;
        let (to_parent, to_name) = self.resolve_parent(to)?;
        if self.dir_lookup(to_parent, to_name) == Ok(ino) {
            return Ok(());
        }
        if let Ok(existing) = self.dir_lookup(to_parent, to_name) {
            if self.get(existing)?.is_dir() {
                return Err(Errno::EISDIR);
            }
            self.dir_remove(to_parent, to_name)?;
            let n = self.get_mut(existing)?;
            n.nlink -= 1;
            if n.nlink == 0 {
                self.inodes[existing] = None;
            }
        }
        self.dir_remove(from_parent, from_name)?;
        self.dir_insert(to_parent, to_name, ino)?;
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read.
    pub fn read_at(&self, ino: Ino, offset: usize, buf: &mut [u8]) -> Result<usize, Errno> {
        match &self.get(ino)?.kind {
            InodeKind::File { data } => {
                if offset >= data.len() {
                    return Ok(0);
                }
                let n = buf.len().min(data.len() - offset);
                buf[..n].copy_from_slice(&data[offset..offset + n]);
                Ok(n)
            }
            InodeKind::Dir { .. } => Err(Errno::EISDIR),
            InodeKind::Symlink { .. } => Err(Errno::EINVAL),
        }
    }

    /// Writes `buf` at `offset`, growing the file as needed.
    ///
    /// # Errors
    ///
    /// `EFBIG` when the write would end past [`MAX_FILE_SIZE`]; the file
    /// is left unchanged.
    pub fn write_at(&mut self, ino: Ino, offset: usize, buf: &[u8]) -> Result<usize, Errno> {
        match &mut self.get_mut(ino)?.kind {
            InodeKind::File { data } => {
                let end = offset
                    .checked_add(buf.len())
                    .filter(|&end| end <= MAX_FILE_SIZE)
                    .ok_or(Errno::EFBIG)?;
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[offset..end].copy_from_slice(buf);
                Ok(buf.len())
            }
            InodeKind::Dir { .. } => Err(Errno::EISDIR),
            InodeKind::Symlink { .. } => Err(Errno::EINVAL),
        }
    }

    /// Truncates/extends a file to `len` bytes.
    ///
    /// # Errors
    ///
    /// `EFBIG` when `len` exceeds [`MAX_FILE_SIZE`]; the file is left
    /// unchanged.
    pub fn truncate(&mut self, ino: Ino, len: usize) -> Result<(), Errno> {
        match &mut self.get_mut(ino)?.kind {
            InodeKind::File { .. } if len > MAX_FILE_SIZE => Err(Errno::EFBIG),
            InodeKind::File { data } => {
                data.resize(len, 0);
                Ok(())
            }
            _ => Err(Errno::EISDIR),
        }
    }

    /// Sets permission bits.
    pub fn chmod(&mut self, ino: Ino, mode: u32) -> Result<(), Errno> {
        self.get_mut(ino)?.mode = mode & 0o7777;
        Ok(())
    }

    /// Lists a directory's entry names.
    pub fn readdir(&self, ino: Ino) -> Result<Vec<String>, Errno> {
        match &self.get(ino)?.kind {
            InodeKind::Dir { entries } => Ok(entries.keys().cloned().collect()),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn dir_lookup(&self, dir: Ino, name: &str) -> Result<Ino, Errno> {
        match &self.get(dir)?.kind {
            InodeKind::Dir { entries } => entries.get(name).copied().ok_or(Errno::ENOENT),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn dir_insert(&mut self, dir: Ino, name: &str, ino: Ino) -> Result<(), Errno> {
        match &mut self.get_mut(dir)?.kind {
            InodeKind::Dir { entries } => {
                entries.insert(name.to_string(), ino);
                Ok(())
            }
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn dir_remove(&mut self, dir: Ino, name: &str) -> Result<(), Errno> {
        match &mut self.get_mut(dir)?.kind {
            InodeKind::Dir { entries } => {
                entries.remove(name).ok_or(Errno::ENOENT)?;
                Ok(())
            }
            _ => Err(Errno::ENOTDIR),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_etc() -> Vfs {
        let mut fs = Vfs::new();
        fs.mkdir("/etc", 0o755).unwrap();
        fs.create("/etc/passwd", 0o644).unwrap();
        fs
    }

    #[test]
    fn create_and_resolve() {
        let fs = fs_with_etc();
        assert!(fs.resolve("/etc/passwd").is_ok());
        assert_eq!(fs.resolve("/etc/shadow"), Err(Errno::ENOENT));
        assert_eq!(fs.resolve("relative"), Err(Errno::EINVAL));
    }

    #[test]
    fn read_write_roundtrip_with_offsets() {
        let mut fs = fs_with_etc();
        let ino = fs.resolve("/etc/passwd").unwrap();
        fs.write_at(ino, 0, b"root:x:0:0").unwrap();
        fs.write_at(ino, 20, b"tail").unwrap(); // sparse write zero-fills
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), 10);
        assert_eq!(&buf, b"root:x:0:0");
        assert_eq!(fs.inode(ino).unwrap().size(), 24);
        let mut tail = [0u8; 8];
        assert_eq!(fs.read_at(ino, 20, &mut tail).unwrap(), 4);
        assert_eq!(&tail[..4], b"tail");
    }

    #[test]
    fn unlink_and_nlink() {
        let mut fs = fs_with_etc();
        fs.link("/etc/passwd", "/etc/pw2").unwrap();
        let ino = fs.resolve("/etc/passwd").unwrap();
        assert_eq!(fs.inode(ino).unwrap().nlink, 2);
        fs.unlink("/etc/passwd").unwrap();
        // Still reachable through the second link.
        let ino2 = fs.resolve("/etc/pw2").unwrap();
        assert_eq!(ino, ino2);
        fs.unlink("/etc/pw2").unwrap();
        assert_eq!(fs.resolve("/etc/pw2"), Err(Errno::ENOENT));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = fs_with_etc();
        assert_eq!(fs.rmdir("/etc"), Err(Errno::ENOTEMPTY));
        fs.unlink("/etc/passwd").unwrap();
        fs.rmdir("/etc").unwrap();
        assert_eq!(fs.resolve("/etc"), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_replaces_files() {
        let mut fs = fs_with_etc();
        fs.create("/etc/new", 0o644).unwrap();
        let ino = fs.resolve("/etc/new").unwrap();
        fs.write_at(ino, 0, b"new data").unwrap();
        fs.rename("/etc/new", "/etc/passwd").unwrap();
        let got = fs.resolve("/etc/passwd").unwrap();
        assert_eq!(got, ino);
        assert_eq!(fs.resolve("/etc/new"), Err(Errno::ENOENT));
    }

    #[test]
    fn symlinks_resolve_and_loop_guard() {
        let mut fs = fs_with_etc();
        fs.symlink("/etc/link", "/etc/passwd").unwrap();
        assert_eq!(fs.resolve("/etc/link").unwrap(), fs.resolve("/etc/passwd").unwrap());
        // Loop: a -> b -> a.
        fs.symlink("/a", "/b").unwrap();
        fs.symlink("/b", "/a").unwrap();
        assert_eq!(fs.resolve("/a"), Err(Errno::EINVAL));
    }

    #[test]
    fn symlink_mid_path() {
        let mut fs = Vfs::new();
        fs.mkdir("/real", 0o755).unwrap();
        fs.create("/real/file", 0o644).unwrap();
        fs.symlink("/alias", "/real").unwrap();
        assert_eq!(fs.resolve("/alias/file").unwrap(), fs.resolve("/real/file").unwrap());
    }

    #[test]
    fn dotdot_resolution() {
        let fs = fs_with_etc();
        assert_eq!(fs.resolve("/etc/../etc/passwd").unwrap(), fs.resolve("/etc/passwd").unwrap());
        assert_eq!(fs.resolve("/../etc/passwd").unwrap(), fs.resolve("/etc/passwd").unwrap());
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let mut fs = fs_with_etc();
        let ino = fs.resolve("/etc/passwd").unwrap();
        fs.write_at(ino, 0, b"0123456789").unwrap();
        fs.truncate(ino, 4).unwrap();
        assert_eq!(fs.inode(ino).unwrap().size(), 4);
        fs.truncate(ino, 8).unwrap();
        let mut buf = [0xffu8; 8];
        fs.read_at(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"0123\0\0\0\0");
    }

    #[test]
    fn writes_and_truncations_past_the_largest_file_are_efbig() {
        let mut fs = fs_with_etc();
        let ino = fs.resolve("/etc/passwd").unwrap();
        fs.write_at(ino, 0, b"0123").unwrap();
        assert_eq!(fs.write_at(ino, MAX_FILE_SIZE, b"x"), Err(Errno::EFBIG));
        assert_eq!(fs.write_at(ino, usize::MAX, b"x"), Err(Errno::EFBIG));
        assert_eq!(fs.truncate(ino, MAX_FILE_SIZE + 1), Err(Errno::EFBIG));
        assert_eq!(fs.inode(ino).unwrap().size(), 4, "refused calls leave the file");
    }

    #[test]
    fn readdir_lists_names() {
        let fs = fs_with_etc();
        let root = fs.resolve("/").unwrap();
        assert_eq!(fs.readdir(root).unwrap(), vec!["etc".to_string()]);
        let etc = fs.resolve("/etc").unwrap();
        assert_eq!(fs.readdir(etc).unwrap(), vec!["passwd".to_string()]);
    }

    #[test]
    fn chmod_roundtrip() {
        let mut fs = fs_with_etc();
        let ino = fs.resolve("/etc/passwd").unwrap();
        fs.chmod(ino, 0o600).unwrap();
        assert_eq!(fs.inode(ino).unwrap().mode, 0o600);
    }

    #[test]
    fn inode_reuse_after_delete() {
        let mut fs = Vfs::new();
        let a = fs.create("/a", 0o644).unwrap();
        fs.unlink("/a").unwrap();
        let b = fs.create("/b", 0o644).unwrap();
        assert_eq!(a, b, "freed slot is reused");
    }

    #[test]
    fn name_too_long() {
        let mut fs = Vfs::new();
        let long = format!("/{}", "x".repeat(300));
        assert_eq!(fs.create(&long, 0o644), Err(Errno::ENAMETOOLONG));
    }

    mod properties {
        use super::*;
        use std::collections::btree_map::Entry;
        use std::collections::BTreeMap;
        use veil_testkit::prop::{bytes, one_of, tuple2, u8s, vecs, Strategy};
        use veil_testkit::{prop_assert, prop_assert_eq};

        /// Random create/write/unlink/rename streams against a
        /// name->contents oracle: the VFS must agree at every step.
        #[derive(Debug, Clone)]
        enum FsOp {
            Create(u8),
            Write(u8, Vec<u8>),
            Unlink(u8),
            Rename(u8, u8),
        }

        fn op() -> Strategy<FsOp> {
            one_of(vec![
                u8s(0..12).map(FsOp::Create),
                tuple2(u8s(0..12), bytes(0..64)).map(|(n, d)| FsOp::Write(n, d)),
                u8s(0..12).map(FsOp::Unlink),
                tuple2(u8s(0..12), u8s(0..12)).map(|(a, b)| FsOp::Rename(a, b)),
            ])
        }

        fn path(n: u8) -> String {
            format!("/f{n}")
        }

        #[test]
        fn vfs_matches_oracle() {
            veil_testkit::prop::check("vfs_matches_oracle", 64, &vecs(op(), 1..120), |ops| {
                let mut fs = Vfs::new();
                let mut oracle: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
                for op in ops {
                    match op {
                        FsOp::Create(n) => {
                            let r = fs.create(&path(n), 0o644);
                            match oracle.entry(n) {
                                Entry::Occupied(_) => {
                                    prop_assert_eq!(r, Err(Errno::EEXIST));
                                }
                                Entry::Vacant(slot) => {
                                    prop_assert!(r.is_ok());
                                    slot.insert(Vec::new());
                                }
                            }
                        }
                        FsOp::Write(n, data) => match fs.resolve(&path(n)) {
                            Ok(ino) => {
                                prop_assert!(oracle.contains_key(&n));
                                fs.write_at(ino, 0, &data).unwrap();
                                let entry = oracle.get_mut(&n).unwrap();
                                if entry.len() < data.len() {
                                    entry.resize(data.len(), 0);
                                }
                                entry[..data.len()].copy_from_slice(&data);
                            }
                            Err(e) => {
                                prop_assert_eq!(e, Errno::ENOENT);
                                prop_assert!(!oracle.contains_key(&n));
                            }
                        },
                        FsOp::Unlink(n) => {
                            let r = fs.unlink(&path(n));
                            prop_assert_eq!(r.is_ok(), oracle.remove(&n).is_some());
                        }
                        FsOp::Rename(a, b) => {
                            let r = fs.rename(&path(a), &path(b));
                            match oracle.remove(&a) {
                                Some(content) => {
                                    prop_assert!(r.is_ok());
                                    oracle.insert(b, content);
                                }
                                None => prop_assert!(r.is_err()),
                            }
                        }
                    }
                    // Full agreement after every step.
                    for (n, content) in &oracle {
                        let ino = fs.resolve(&path(*n)).expect("oracle says exists");
                        let mut buf = vec![0u8; content.len()];
                        fs.read_at(ino, 0, &mut buf).unwrap();
                        prop_assert_eq!(&buf, content);
                    }
                }
                Ok(())
            });
        }
    }
}
