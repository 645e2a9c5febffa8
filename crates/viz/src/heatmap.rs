//! Tile-grid activity heat maps (the paper's Fig. 2 frames).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Intensity ramp for ASCII rendering, dark to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders per-tile activity grids for a `width × height` tile grid.
///
/// Values are normalized to `max_value` (e.g., the frame length in
/// cycles, so color is "percentage of the frame the counter was active",
/// exactly the paper's encoding).
#[derive(Debug, Clone)]
pub struct Heatmap {
    width: u32,
    height: u32,
}

impl Heatmap {
    /// Creates a renderer for a grid.
    pub fn new(width: u32, height: u32) -> Self {
        Heatmap { width, height }
    }

    /// Renders one frame as ASCII art, one character per tile.
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != width * height`.
    pub fn ascii(&self, grid: &[u32], max_value: u32) -> String {
        assert_eq!(grid.len(), (self.width * self.height) as usize);
        let max = max_value.max(1) as f64;
        let mut out = String::with_capacity(((self.width + 1) * self.height) as usize);
        for y in 0..self.height {
            for x in 0..self.width {
                let v = grid[(y * self.width + x) as usize] as f64 / max;
                let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Renders one frame as a binary PPM (P6) image with a blue→red ramp,
    /// one pixel per tile.
    fn ppm(&self, grid: &[u32], max_value: u32) -> Vec<u8> {
        assert_eq!(grid.len(), (self.width * self.height) as usize);
        let max = max_value.max(1) as f64;
        let mut out = Vec::with_capacity(grid.len() * 3 + 32);
        let mut header = String::new();
        let _ = write!(header, "P6\n{} {}\n255\n", self.width, self.height);
        out.extend_from_slice(header.as_bytes());
        for &v in grid {
            let t = (v as f64 / max).min(1.0);
            // cold (32, 32, 96) -> hot (255, 64, 0)
            let r = (32.0 + t * 223.0) as u8;
            let g = (32.0 + t * 32.0) as u8;
            let b = (96.0 - t * 96.0) as u8;
            out.extend_from_slice(&[r, g, b]);
        }
        out
    }

    /// Writes a numbered PPM frame sequence (`frame_000.ppm`, ...) into
    /// `dir`, each frame through
    /// [`output::replace`](muchisim_config::output::replace) — the
    /// file-based equivalent of the paper's GIF animation.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error, naming its path.
    pub fn write_sequence(
        &self,
        dir: &Path,
        frames: &[Vec<u32>],
        max_value: u32,
    ) -> io::Result<()> {
        for (i, frame) in frames.iter().enumerate() {
            let path = dir.join(format!("frame_{i:03}.ppm"));
            muchisim_config::output::replace(path, |w| w.write_all(&self.ppm(frame, max_value)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_shape_and_ramp() {
        let h = Heatmap::new(4, 2);
        let grid = vec![0, 10, 20, 40, 0, 0, 0, 40];
        let art = h.ascii(&grid, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 4);
        assert_eq!(lines[0].as_bytes()[0], b' ');
        assert_eq!(lines[0].as_bytes()[3], b'@');
    }

    #[test]
    fn ppm_header_and_size() {
        let h = Heatmap::new(3, 3);
        let img = h.ppm(&[0; 9], 1);
        assert!(img.starts_with(b"P6\n3 3\n255\n"));
        assert_eq!(img.len(), 11 + 27);
    }

    #[test]
    fn hot_pixels_are_red() {
        let h = Heatmap::new(1, 1);
        let img = h.ppm(&[100], 100);
        let px = &img[img.len() - 3..];
        assert_eq!(px, &[255, 64, 0]);
        let img = h.ppm(&[0], 100);
        let px = &img[img.len() - 3..];
        assert_eq!(px, &[32, 32, 96]);
    }

    #[test]
    fn sequence_writes_numbered_frames() {
        let dir = std::env::temp_dir().join("muchisim_viz_test_frames");
        let _ = std::fs::remove_dir_all(&dir);
        let h = Heatmap::new(2, 2);
        h.write_sequence(&dir, &[vec![0; 4], vec![1; 4]], 1)
            .unwrap();
        assert!(dir.join("frame_000.ppm").exists());
        assert!(dir.join("frame_001.ppm").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic]
    fn wrong_grid_size_panics() {
        Heatmap::new(2, 2).ascii(&[0; 3], 1);
    }

    #[test]
    fn degenerate_grids_and_max_values_render_cleanly() {
        // zero max (an all-idle frame out of a tiny merged log) must not
        // divide by zero; everything lands on the cold end of the ramp
        let h = Heatmap::new(2, 1);
        let art = h.ascii(&[0, 0], 0);
        assert_eq!(art, "  \n");
        let img = h.ppm(&[0, 0], 0);
        assert_eq!(&img[img.len() - 3..], &[32, 32, 96]);
        // zero-sized grids produce empty-but-valid artifacts
        let empty = Heatmap::new(0, 0);
        assert_eq!(empty.ascii(&[], 1), "");
        assert!(empty.ppm(&[], 1).starts_with(b"P6\n0 0\n255\n"));
    }
}
