//! Distributed 3D Fast Fourier Transform (paper §III-G and the §IV-A
//! WSE validation): the FFT of an `n³` tensor parallelized across `n²`
//! tiles, one `n`-element pencil per tile, with two all-to-all transpose
//! phases between the three 1D FFT sweeps.
//!
//! Data distribution across the three kernels (tile grid coordinates
//! `(a, b)` = (column, row)):
//!
//! 1. kernel 0: tile `(a, b)` owns the z-pencil `f[a][b][*]`; FFT over z,
//!    then send element `k` to tile `(a, k)` (slot `b`).
//! 2. kernel 1: tile `(a, c)` owns the y-pencil `f[a][*][c]`; FFT over y,
//!    then send element `j` to tile `(j, c)` (slot `a`).
//! 3. kernel 2: tile `(b, c)` owns the x-pencil `f[*][b][c]`; FFT over x.
//!
//! Element transfers use FP32 (the WSE implementation's precision), so
//! the result check uses a relative Frobenius tolerance.

use crate::common::arrays;
use muchisim_core::snapshot::{put_seq, ByteReader, TileState};
use muchisim_core::{Application, GridInfo, TaskCtx};
use muchisim_data::tensor::{fft_in_place, Complex, Tensor3};
use std::sync::Arc;

/// Distributed 3D FFT of an `n³` tensor over an `n × n` tile grid.
#[derive(Debug)]
pub struct Fft3d {
    input: Arc<Tensor3>,
    reference: Tensor3,
    n: usize,
}

/// Per-tile FFT state: the owned pencil and the transpose receive buffer.
#[derive(Debug)]
pub struct FftTile {
    pencil: Vec<Complex>,
    recv: Vec<Complex>,
}

/// The pencil, then the receive buffer, each a sequence of `(re, im)`.
impl TileState for FftTile {
    fn put_state(&self, buf: &mut Vec<u8>) {
        for line in [&self.pencil, &self.recv] {
            put_seq(buf, line.iter().map(|c| (c.re, c.im)));
        }
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), String> {
        for line in [&mut self.pencil, &mut self.recv] {
            let parts = r.seq::<(f64, f64)>()?;
            if parts.len() != line.len() {
                return Err("fft tile: snapshot pencil length does not match".into());
            }
            for (c, (re, im)) in line.iter_mut().zip(parts) {
                (c.re, c.im) = (re, im);
            }
        }
        Ok(())
    }

    fn heap_bytes(&self) -> u64 {
        (self.pencil.capacity() + self.recv.capacity()) as u64
            * std::mem::size_of::<Complex>() as u64
    }
}

impl Fft3d {
    /// Builds the FFT of a deterministic random `n³` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n.is_power_of_two(), "FFT size must be a power of two");
        let input = Tensor3::random(n, seed);
        let reference = input.fft3_reference();
        Fft3d {
            input: Arc::new(input),
            reference,
            n,
        }
    }

    /// Instruments one `n`-point FFT: `(n/2)·log2(n)` butterflies at 10
    /// FLOPs each, with the pencil streaming through the PLM.
    fn instrument_fft(&self, ctx: &mut TaskCtx<'_>) {
        let n = self.n as u64;
        let butterflies = (n / 2) * n.trailing_zeros() as u64;
        ctx.fp_ops(butterflies * 10);
        for i in 0..n {
            ctx.load(ctx.local_addr(arrays::AUX, i, 8));
            ctx.store(ctx.local_addr(arrays::AUX, i, 8));
        }
    }
}

impl Application for Fft3d {
    type Tile = FftTile;

    fn name(&self) -> &'static str {
        "fft"
    }

    fn task_types(&self) -> u8 {
        1
    }

    fn kernels(&self) -> u32 {
        3
    }

    fn make_tile(&self, tile: u32, grid: &GridInfo) -> FftTile {
        assert_eq!(
            (grid.width as usize, grid.height as usize),
            (self.n, self.n),
            "FFT of n^3 needs an n x n tile grid"
        );
        let (a, b) = (tile % grid.width, tile / grid.width);
        FftTile {
            pencil: self.input.pencil(a as usize, b as usize).to_vec(),
            recv: vec![Complex::ZERO; self.n],
        }
    }

    fn init(&self, state: &mut FftTile, ctx: &mut TaskCtx<'_>) {
        let grid = ctx.grid();
        let (a, b) = (ctx.tile % grid.width, ctx.tile / grid.width);
        if ctx.kernel > 0 {
            // adopt the transposed data received during the last kernel
            std::mem::swap(&mut state.pencil, &mut state.recv);
        }
        fft_in_place(&mut state.pencil);
        self.instrument_fft(ctx);
        if ctx.kernel == 2 {
            return; // final sweep: data stays put
        }
        for k in 0..self.n {
            let v = state.pencil[k];
            let (dst, slot) = if ctx.kernel == 0 {
                // z -> y transpose: element k goes to tile (a, k), slot b
                (k as u32 * grid.width + a, b)
            } else {
                // y -> x transpose: element j goes to tile (j, c), slot a
                (b * grid.width + k as u32, a)
            };
            ctx.int_ops(2);
            ctx.send(
                0,
                dst,
                &[slot, (v.re as f32).to_bits(), (v.im as f32).to_bits()],
            );
            ctx.app_ops(1);
        }
    }

    fn handle(&self, state: &mut FftTile, _task: u8, msg: &[u32], ctx: &mut TaskCtx<'_>) {
        let slot = msg[0] as usize;
        let re = f32::from_bits(msg[1]) as f64;
        let im = f32::from_bits(msg[2]) as f64;
        state.recv[slot] = Complex::new(re, im);
        ctx.store(ctx.local_addr(arrays::AUX, slot as u64, 8));
    }

    fn check(&self, tiles: &[FftTile]) -> Result<(), String> {
        // tile (b, c) holds the x-line for y=b, z=c
        let n = self.n;
        let mut out = Tensor3::zeros(n);
        for (tile, state) in tiles.iter().enumerate() {
            let b = tile % n;
            let c = tile / n;
            for (i, &v) in state.pencil.iter().enumerate() {
                out.set(i, b, c, v);
            }
        }
        let scale = self
            .reference
            .distance(&Tensor3::zeros(n))
            .max(f64::EPSILON);
        let err = out.distance(&self.reference) / scale;
        if err < 1e-3 {
            Ok(())
        } else {
            Err(format!("fft: relative error {err:.2e} exceeds 1e-3"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_builds_reference() {
        let f = Fft3d::new(4, 1);
        assert_eq!(f.n, 4);
        // reference differs from input (non-trivial transform)
        assert!(f.reference.distance(&f.input) > 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Fft3d::new(6, 1);
    }
}
