//! Dense 3D tensors for the FFT benchmark (paper §III-G, §IV-A).
//!
//! The WSE validation parallelizes the FFT of an `n³` complex tensor
//! across `n²` processors: each PU owns one *pencil* of `n` elements.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A complex number stored as two `f64` parts.
///
/// Kept minimal: only the operations the FFT kernels need.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^(i·theta)`.
    fn from_polar_unit(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// In-place radix-2 decimation-in-time FFT of a power-of-two pencil.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    // bit-reversal permutation
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// A dense `n × n × n` complex tensor stored contiguously (z fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    n: usize,
    data: Vec<Complex>,
}

impl Tensor3 {
    /// Creates a zero tensor of side `n`.
    pub fn zeros(n: usize) -> Self {
        Tensor3 {
            n,
            data: vec![Complex::ZERO; n * n * n],
        }
    }

    /// Creates a deterministic random tensor of side `n`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..n * n * n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        Tensor3 { n, data }
    }

    /// Element at `(x, y, z)`.
    pub(crate) fn get(&self, x: usize, y: usize, z: usize) -> Complex {
        self.data[(x * self.n + y) * self.n + z]
    }

    /// Sets the element at `(x, y, z)`.
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: Complex) {
        self.data[(x * self.n + y) * self.n + z] = v;
    }

    /// The pencil (fixed `x`, `y`, varying `z`) as a mutable slice.
    fn pencil_mut(&mut self, x: usize, y: usize) -> &mut [Complex] {
        let start = (x * self.n + y) * self.n;
        &mut self.data[start..start + self.n]
    }

    /// The pencil as an immutable slice.
    pub fn pencil(&self, x: usize, y: usize) -> &[Complex] {
        let start = (x * self.n + y) * self.n;
        &self.data[start..start + self.n]
    }

    /// Full 3D FFT computed directly on the host (the reference result the
    /// simulated distributed FFT is checked against).
    pub fn fft3_reference(&self) -> Tensor3 {
        let n = self.n;
        let mut t = self.clone();
        // FFT along z
        for x in 0..n {
            for y in 0..n {
                fft_in_place(t.pencil_mut(x, y));
            }
        }
        // FFT along y
        let mut buf = vec![Complex::ZERO; n];
        for x in 0..n {
            for z in 0..n {
                for (y, b) in buf.iter_mut().enumerate() {
                    *b = t.get(x, y, z);
                }
                fft_in_place(&mut buf);
                for (y, &b) in buf.iter().enumerate() {
                    t.set(x, y, z, b);
                }
            }
        }
        // FFT along x
        for y in 0..n {
            for z in 0..n {
                for (x, b) in buf.iter_mut().enumerate() {
                    *b = t.get(x, y, z);
                }
                fft_in_place(&mut buf);
                for (x, &b) in buf.iter().enumerate() {
                    t.set(x, y, z, b);
                }
            }
        }
        t
    }

    /// Frobenius-norm distance to `other`, for result checking.
    pub fn distance(&self, other: &Tensor3) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm_sq())
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![Complex::ZERO; 8];
        d[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut d);
        for c in d {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut d = vec![Complex::new(1.0, 0.0); 8];
        fft_in_place(&mut d);
        assert!((d[0].re - 8.0).abs() < 1e-12);
        for c in &d[1..] {
            assert!(c.norm_sq() < 1e-20);
        }
    }

    #[test]
    fn fft_parseval_energy_preserved() {
        let mut rngd: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let time_energy: f64 = rngd.iter().map(|c| c.norm_sq()).sum();
        fft_in_place(&mut rngd);
        let freq_energy: f64 = rngd.iter().map(|c| c.norm_sq()).sum();
        assert!((freq_energy - 16.0 * time_energy).abs() / freq_energy < 1e-10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut d = vec![Complex::ZERO; 6];
        fft_in_place(&mut d);
    }

    #[test]
    fn tensor_indexing() {
        let mut t = Tensor3::zeros(4);
        t.set(1, 2, 3, Complex::new(5.0, 0.0));
        assert_eq!(t.get(1, 2, 3).re, 5.0);
        assert_eq!(t.pencil(1, 2)[3].re, 5.0);
    }

    #[test]
    fn tensor_random_deterministic() {
        assert_eq!(Tensor3::random(4, 9), Tensor3::random(4, 9));
        assert_ne!(Tensor3::random(4, 9), Tensor3::random(4, 10));
    }

    #[test]
    fn fft3_reference_impulse() {
        let mut t = Tensor3::zeros(4);
        t.set(0, 0, 0, Complex::new(1.0, 0.0));
        let f = t.fft3_reference();
        // impulse transforms to all-ones
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    let c = f.get(x, y, z);
                    assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn distance_zero_for_identical() {
        let t = Tensor3::random(4, 3);
        assert_eq!(t.distance(&t), 0.0);
    }
}
