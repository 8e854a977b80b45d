//! Byte-addressable simulated memory with a simple bump allocator.
//!
//! The simulated address space starts at [`Memory::BASE`] (so that null
//! pointers trap) and grows on demand. Matrices, scratch panels and stack
//! space used by generated kernels all live here; the host never hands raw
//! host pointers to simulated code. The stack is sized to the program that
//! runs on it (see [`Memory::init_stack`]), so a kernel that never moves SP
//! costs no stack memory at all.

use serde::{Deserialize, Serialize};

/// Simulated memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Memory {
    data: Vec<u8>,
    next_alloc: u64,
    stack_base: u64,
    stack_top: u64,
}

impl Memory {
    /// Base address of the heap region. Address 0 is intentionally unmapped.
    pub const BASE: u64 = 0x1_0000;

    /// Granule of the simulated stack: its top is aligned to, and its size
    /// rounded up to, whole pages, so stack addresses keep the same
    /// alignment (and hence the same modelled cost) whatever its size.
    pub const STACK_ALIGN: u64 = 4096;

    /// Create an empty memory with neither a stack nor heap allocations.
    pub fn new() -> Self {
        Memory {
            data: Vec::new(),
            next_alloc: Self::BASE,
            stack_base: 0,
            stack_top: 0,
        }
    }

    /// Total bytes currently backed.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Allocate `bytes` with the given power-of-two `align`ment and return
    /// the simulated address.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(
            align.is_power_of_two(),
            "alignment must be a power of two, got {align}"
        );
        let addr = (self.next_alloc + align - 1) & !(align - 1);
        self.next_alloc = addr + bytes;
        self.ensure(self.next_alloc);
        addr
    }

    /// Allocate an `f32` buffer, copy `data` into it and return its address.
    pub fn alloc_f32(&mut self, data: &[f32], align: u64) -> u64 {
        let addr = self.alloc((data.len() * 4) as u64, align);
        self.write_f32_slice(addr, data);
        addr
    }

    /// Allocate a zero-initialised `f32` buffer of `len` elements.
    pub fn alloc_f32_zeroed(&mut self, len: usize, align: u64) -> u64 {
        self.alloc((len * 4) as u64, align)
    }

    /// Make sure a stack of at least `bytes` bytes is backed and return the
    /// initial stack pointer (the exclusive, page-aligned top of the stack
    /// region).
    ///
    /// A stack that is already large enough is kept, so repeated runs on
    /// one memory reuse it. Otherwise a fresh region of `bytes` rounded up
    /// to whole pages is allocated after everything allocated so far; the
    /// old region is simply abandoned.
    pub fn init_stack(&mut self, bytes: u64) -> u64 {
        if self.stack_top == 0 || self.stack_top - self.stack_base < bytes {
            let size = bytes.next_multiple_of(Self::STACK_ALIGN);
            self.stack_base = self.alloc(size, Self::STACK_ALIGN);
            self.stack_top = self.stack_base + size;
        }
        self.stack_top
    }

    /// The lowest address of the current stack region (0 if none).
    pub fn stack_base(&self) -> u64 {
        self.stack_base
    }

    /// The current stack top (0 if none).
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    fn ensure(&mut self, end: u64) {
        let need = (end - Self::BASE) as usize;
        if need > self.data.len() {
            self.data.resize(need, 0);
        }
    }

    fn index(&self, addr: u64, len: usize) -> usize {
        assert!(
            addr >= Self::BASE,
            "simulated access to unmapped low address 0x{addr:x} ({len} bytes)"
        );
        (addr - Self::BASE) as usize
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let idx = self.index(addr, len);
        assert!(
            idx + len <= self.data.len(),
            "simulated read of {len} bytes at 0x{addr:x} is out of bounds"
        );
        &self.data[idx..idx + len]
    }

    /// Write `bytes` starting at `addr`, growing the backing store if the
    /// address was allocated but not yet touched.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let idx = self.index(addr, bytes.len());
        let end = idx + bytes.len();
        assert!(
            (addr + bytes.len() as u64) <= self.next_alloc.max(self.stack_top),
            "simulated write of {} bytes at 0x{addr:x} is outside any allocation",
            bytes.len()
        );
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        self.data[idx..end].copy_from_slice(bytes);
    }

    /// Read one `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let b = self.read_bytes(addr, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Write one `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Read one `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let b = self.read_bytes(addr, 8);
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Write one `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Read one `f32`.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Write one `f32`.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Read one `f64`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write one `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Read a slice of `f32` values.
    pub fn read_f32_slice(&self, addr: u64, len: usize) -> Vec<f32> {
        self.read_bytes(addr, len * 4)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Write a slice of `f32` values.
    pub fn write_f32_slice(&mut self, addr: u64, data: &[f32]) {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(addr, &bytes);
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_respects_alignment() {
        let mut m = Memory::new();
        let a = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        let b = m.alloc(100, 128);
        assert_eq!(b % 128, 0);
        assert!(b > a, "allocations must not overlap");
        let c = m.alloc(4, 16);
        assert!(c >= b + 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_rejected() {
        let mut m = Memory::new();
        let _ = m.alloc(8, 48);
    }

    #[test]
    fn scalar_roundtrips() {
        let mut m = Memory::new();
        let a = m.alloc(64, 64);
        m.write_u32(a, 0xdeadbeef);
        assert_eq!(m.read_u32(a), 0xdeadbeef);
        m.write_u64(a + 8, u64::MAX - 5);
        assert_eq!(m.read_u64(a + 8), u64::MAX - 5);
        m.write_f32(a + 16, 3.5);
        assert_eq!(m.read_f32(a + 16), 3.5);
        m.write_f64(a + 24, -2.25);
        assert_eq!(m.read_f64(a + 24), -2.25);
    }

    #[test]
    fn f32_slices() {
        let mut m = Memory::new();
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let addr = m.alloc_f32(&data, 128);
        assert_eq!(addr % 128, 0);
        assert_eq!(m.read_f32_slice(addr, 100), data);
    }

    #[test]
    fn zeroed_allocations_read_back_zero() {
        let mut m = Memory::new();
        let addr = m.alloc_f32_zeroed(16, 64);
        assert_eq!(m.read_f32_slice(addr, 16), vec![0.0; 16]);
    }

    #[test]
    fn stack_setup() {
        let mut m = Memory::new();
        let sp = m.init_stack(16);
        assert_eq!(sp, m.stack_top());
        assert_eq!(sp % Memory::STACK_ALIGN, 0);
        assert_eq!(
            sp - m.stack_base(),
            Memory::STACK_ALIGN,
            "rounded to a page"
        );
        // The stack grows downwards; writing just below the top must work.
        m.write_u64(sp - 8, 42);
        assert_eq!(m.read_u64(sp - 8), 42);
    }

    #[test]
    fn stacks_are_sized_on_demand_and_reused() {
        let mut m = Memory::new();
        let a = m.alloc(100, 128);
        // A program that never moves SP gets an empty, page-aligned stack.
        let top = m.init_stack(0);
        assert_eq!((m.stack_base(), top % Memory::STACK_ALIGN), (top, 0));
        assert!(top > a);
        // A stack large enough for the next program is kept …
        assert_eq!(m.init_stack(0), top);
        // … a deeper program gets a fresh region above everything else.
        let b = m.alloc(100, 128);
        let deep = m.init_stack(5000);
        assert_eq!(deep - m.stack_base(), 2 * Memory::STACK_ALIGN);
        assert!(m.stack_base() >= b + 100);
        assert_eq!(m.init_stack(8192), deep);
        assert_eq!(m.capacity(), 4 * Memory::STACK_ALIGN as usize);
    }

    #[test]
    #[should_panic(expected = "unmapped low address")]
    fn null_accesses_trap() {
        let m = Memory::new();
        let _ = m.read_u32(8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_reads_trap() {
        let mut m = Memory::new();
        let a = m.alloc(16, 16);
        let _ = m.read_bytes(a, 1 << 20);
    }
}
