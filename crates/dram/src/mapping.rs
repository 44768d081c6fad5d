//! Physical address interleaving.
//!
//! Addresses are decomposed, low bits first, as
//! `| line offset | channel | bank | column | row |`:
//! consecutive cache lines rotate across channels (spreading streaming
//! traffic), then across a bank's row before moving to the next bank. This
//! is the standard interleaving for bandwidth-bound mobile SoCs.

use crate::config::DramConfig;

/// Where one cache line lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Place {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

/// Decomposes byte addresses into [`Place`]s per the configured geometry.
///
/// # Example
///
/// ```
/// use dram::{AddressMapper, DramConfig};
/// let m = AddressMapper::new(&DramConfig::lpddr3_table3());
/// let a = m.place(0);
/// let b = m.place(64); // next line: next channel
/// assert_ne!(a.channel, b.channel);
/// assert_eq!(a.bank, b.bank);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    channel_mask: u64,
    channel_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    column_shift: u32,
}

impl AddressMapper {
    /// Builds a mapper for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not [validate](DramConfig::validate).
    pub fn new(cfg: &DramConfig) -> Self {
        cfg.validate().expect("invalid DRAM config");
        let line_shift = cfg.line_bytes.trailing_zeros();
        let channel_bits = (cfg.channels as u64).trailing_zeros();
        let bank_bits = (cfg.banks as u64).trailing_zeros();
        let column_bits = cfg.lines_per_row().trailing_zeros();
        AddressMapper {
            channel_mask: (cfg.channels as u64) - 1,
            channel_shift: line_shift,
            bank_mask: (cfg.banks as u64) - 1,
            bank_shift: line_shift + channel_bits,
            column_shift: line_shift + channel_bits + bank_bits + column_bits,
        }
    }

    /// Maps a byte address to the line's location.
    pub fn place(&self, addr: u64) -> Place {
        Place {
            channel: ((addr >> self.channel_shift) & self.channel_mask) as usize,
            bank: ((addr >> self.bank_shift) & self.bank_mask) as usize,
            row: addr >> self.column_shift,
        }
    }

    /// Splits a `(addr, bytes)` request into per-line places, coalescing all
    /// lines that share `(channel, bank, row)` into `(place, nlines)`
    /// bursts — the controller transfers each burst back-to-back.
    pub fn split(&self, addr: u64, bytes: u64, line_bytes: u64) -> Vec<(Place, u64)> {
        let mut out = Vec::new();
        self.split_into(addr, bytes, line_bytes, &mut out);
        out
    }

    /// Like [`split`](AddressMapper::split), but appends into a caller-owned
    /// buffer.
    pub fn split_into(&self, addr: u64, bytes: u64, line_bytes: u64, out: &mut Vec<(Place, u64)>) {
        self.visit_bursts(addr, bytes, line_bytes, |place, lines| {
            out.push((place, lines))
        });
    }

    /// Calls `visit(place, lines)` for each burst of
    /// [`split`](AddressMapper::split), in the same order, without a
    /// buffer. The bursts are computed arithmetically instead of by walking
    /// lines: in line-index space the low bits of an index select
    /// `(channel, bank)` and the bits above the column select the row, so
    /// within one row-stripe every group is a residue class mod
    /// `channels × banks` and its size is a division, not a walk. Groups are
    /// visited in first-touch order — identical to the line walk's output.
    #[inline]
    pub fn visit_bursts(
        &self,
        addr: u64,
        bytes: u64,
        line_bytes: u64,
        mut visit: impl FnMut(Place, u64),
    ) {
        let first = addr / line_bytes;
        let last = (addr + bytes - 1) / line_bytes;
        // Geometry in line-index space (line_bytes is a power of two and
        // `channel_shift` is its bit width, so byte shifts translate down).
        let groups = (self.channel_mask + 1) * (self.bank_mask + 1);
        let row_shift = self.column_shift - self.channel_shift;
        let stripe = 1u64 << row_shift; // lines per (row × all channels × banks)
        let mut a = first;
        while a <= last {
            // One row-stripe: residue classes never cross it (the row is
            // part of the group key and changes at the boundary).
            let b = last.min((a | (stripe - 1)).max(a));
            let span = (b - a + 1).min(groups);
            for l in a..a + span {
                // `l` is the first line of its residue class within [a, b];
                // the rest follow every `groups` lines.
                visit(self.place(l * line_bytes), (b - l) / groups + 1);
            }
            a = b + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(&DramConfig::lpddr3_table3())
    }

    #[test]
    fn consecutive_lines_rotate_channels() {
        let m = mapper();
        let places: Vec<Place> = (0..4).map(|i| m.place(i * 64)).collect();
        let chans: Vec<usize> = places.iter().map(|p| p.channel).collect();
        assert_eq!(chans, vec![0, 1, 2, 3]);
        assert!(places.iter().all(|p| p.bank == 0 && p.row == 0));
    }

    #[test]
    fn banks_rotate_after_channels() {
        let m = mapper();
        // 4 channels × 64 B: line 4 wraps back to channel 0, bank 1.
        let p = m.place(4 * 64);
        assert_eq!(p.channel, 0);
        assert_eq!(p.bank, 1);
    }

    #[test]
    fn row_changes_after_full_sweep() {
        let cfg = DramConfig::lpddr3_table3();
        let m = mapper();
        // One row per bank holds 32 lines; channels*banks*lines_per_row
        // lines fit before the row index increments.
        let lines_before_row_change = cfg.channels as u64 * cfg.banks as u64 * cfg.lines_per_row();
        assert_eq!(m.place((lines_before_row_change - 1) * 64).row, 0);
        assert_eq!(m.place(lines_before_row_change * 64).row, 1);
    }

    #[test]
    fn split_covers_every_line_once() {
        let cfg = DramConfig::lpddr3_table3();
        let m = mapper();
        let parts = m.split(0x100, 1024, cfg.line_bytes);
        let total: u64 = parts.iter().map(|&(_, n)| n).sum();
        // 1024 B starting at 0x100 is line-aligned: exactly 16 lines.
        assert_eq!(total, 16);
    }

    #[test]
    fn split_handles_unaligned_spans() {
        let cfg = DramConfig::lpddr3_table3();
        let m = mapper();
        // 1 byte crossing a line boundary touches... just one line.
        assert_eq!(m.split(63, 1, cfg.line_bytes).len(), 1);
        // 2 bytes straddling a boundary touch two lines.
        let parts = m.split(63, 2, cfg.line_bytes);
        let total: u64 = parts.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn mapping_is_injective_over_a_region() {
        let m = mapper();
        let mut seen = desim::FxHashSet::default();
        for line in 0..4096u64 {
            let p = m.place(line * 64);
            // (channel, bank, row, column-within-row) must be unique; we
            // reconstruct the column from the line index.
            assert!(
                seen.insert((p.channel, p.bank, p.row, line)),
                "dup at {line}"
            );
        }
    }
}
