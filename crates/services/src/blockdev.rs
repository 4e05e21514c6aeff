//! The ramdisk block device server (the paper's "in-memory ram disk
//! server" behind the file system, §5.3).

use simos::World;
use std::rc::Rc;

/// Block size in bytes (matches the FS and the paper's 4 KiB transfers).
pub const BLOCK_SIZE: usize = 4096;

/// One block's bytes behind a shared, copy-on-write handle: cloning a
/// [`Block`] shares the buffer, and a writer that holds a shared handle
/// copies before mutating (`Rc::make_mut`). The file system logs and
/// installs the same handle, and a [`BlockDev`] clone shares every
/// written block with the original.
pub type Block = Rc<[u8; BLOCK_SIZE]>;

/// What every never-written block holds.
static ZERO_BLOCK: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// A fresh, unshared all-zero block.
pub fn zero_block() -> Block {
    Rc::new([0; BLOCK_SIZE])
}

/// An in-memory block store. Each request costs one pass over the block
/// (the ramdisk moving data between its store and the message), charged
/// to the [`World`]; the IPC hop itself is charged by the caller.
///
/// The store is sparse: a block that was never written holds no buffer
/// and reads as zeros, at the same charge as a written one. Written
/// blocks are shared [`Block`] handles, so cloning the device (a crash
/// image, a reopened database) copies one pointer per block, and later
/// writes to either side replace handles instead of mutating the shared
/// bytes.
#[derive(Debug, Clone)]
pub struct BlockDev {
    blocks: Vec<Option<Block>>,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
}

impl BlockDev {
    /// A ramdisk with `nblocks` zeroed blocks.
    pub fn new(nblocks: usize) -> Self {
        BlockDev {
            blocks: vec![None; nblocks],
            reads: 0,
            writes: 0,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the device has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Serve a block read. The returned handle shares the stored buffer;
    /// a never-written block reads as a fresh zeroed one.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block (FS bug, not user input).
    pub fn read(&mut self, w: &mut World, idx: u64) -> Block {
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.reads += 1;
        self.blocks[idx as usize].clone().unwrap_or_else(zero_block)
    }

    /// Serve a block write, storing the handle (shared, not copied).
    ///
    /// Only whole blocks can be written:
    ///
    /// ```
    /// use services::blockdev::{BlockDev, BLOCK_SIZE};
    /// use std::rc::Rc;
    ///
    /// let mut w = simos::World::new(Box::new(kernels::Zircon::new()));
    /// let mut dev = BlockDev::new(1);
    /// dev.write(&mut w, 0, Rc::new([1u8; BLOCK_SIZE]));
    /// assert_eq!(dev.peek(0)[0], 1);
    /// ```
    ///
    /// so a partial write does not type-check:
    ///
    /// ```compile_fail
    /// use services::blockdev::BlockDev;
    /// use std::rc::Rc;
    ///
    /// let mut w = simos::World::new(Box::new(kernels::Zircon::new()));
    /// let mut dev = BlockDev::new(1);
    /// dev.write(&mut w, 0, Rc::new([1u8, 2, 3]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block.
    pub fn write(&mut self, w: &mut World, idx: u64, data: Block) {
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.writes += 1;
        self.blocks[idx as usize] = Some(data);
    }

    /// Host-side peek without cycle charge (test inspection).
    pub fn peek(&self, idx: u64) -> &[u8; BLOCK_SIZE] {
        self.blocks[idx as usize].as_deref().unwrap_or(&ZERO_BLOCK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{CycleLedger, InvokeOpts, IpcSystem};

    struct Free;
    impl IpcSystem for Free {
        fn name(&self) -> String {
            "free".into()
        }
        fn oneway_into(&mut self, _: usize, _: &InvokeOpts, _: &mut CycleLedger) -> u64 {
            0
        }
    }

    fn world() -> World {
        World::new(Box::new(Free))
    }

    fn block(fill: u8) -> Block {
        Rc::new([fill; BLOCK_SIZE])
    }

    #[test]
    fn read_write_round_trip() {
        let mut w = world();
        let mut d = BlockDev::new(8);
        let mut data = zero_block();
        let bytes = Rc::make_mut(&mut data);
        bytes[0] = 0xaa;
        bytes[BLOCK_SIZE - 1] = 0x55;
        d.write(&mut w, 3, data.clone());
        assert_eq!(d.read(&mut w, 3), data);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn accesses_charge_cycles() {
        let mut w = world();
        let mut d = BlockDev::new(2);
        let before = w.cycles;
        let _ = d.read(&mut w, 0);
        assert!(w.cycles > before, "ramdisk pass must cost cycles");
    }

    #[test]
    fn untouched_block_reads_zero_at_the_written_charge() {
        let mut w = world();
        let mut d = BlockDev::new(4);
        d.write(&mut w, 1, block(7));
        let before = w.cycles;
        assert_eq!(*d.read(&mut w, 0), [0; BLOCK_SIZE]);
        let untouched = w.cycles - before;
        let before = w.cycles;
        assert_eq!(*d.read(&mut w, 1), [7; BLOCK_SIZE]);
        assert_eq!(w.cycles - before, untouched, "sparse reads cost the same");
        assert_eq!(d.peek(2), &[0; BLOCK_SIZE]);
        assert_eq!(d.reads, 2);
    }

    #[test]
    fn clone_does_not_see_later_writes() {
        let mut w = world();
        let mut d = BlockDev::new(4);
        d.write(&mut w, 0, block(1));
        let image = d.clone();
        d.write(&mut w, 0, block(2));
        d.write(&mut w, 3, block(3));
        assert_eq!(image.peek(0), &[1; BLOCK_SIZE]);
        assert_eq!(image.peek(3), &[0; BLOCK_SIZE]);
        assert_eq!(d.peek(0), &[2; BLOCK_SIZE]);
    }

    #[test]
    fn mutating_a_read_handle_leaves_the_store_alone() {
        let mut w = world();
        let mut d = BlockDev::new(2);
        d.write(&mut w, 0, block(4));
        let mut got = d.read(&mut w, 0);
        Rc::make_mut(&mut got)[0] = 9;
        assert_eq!(d.peek(0), &[4; BLOCK_SIZE], "copy on write");
    }
}
