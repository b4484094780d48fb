//! Pass 4: static DTB pressure estimation.
//!
//! The DTB caches one translation unit per DIR address, so a region's
//! *static translation working set* is its instruction count (entries) and
//! the summed length of its translation sequences (storage words). The
//! hottest candidate is the largest natural-loop body — the span between a
//! backward branch and its target — because that is the set of entries the
//! DTB must hold simultaneously for the loop to run miss-free, which is
//! the locality argument the paper's DTB design rests on. From that bound
//! the pass recommends a [`Geometry`] and warns when the hot set exceeds
//! the default DTB the CLI configures.

use dir::program::Program;
use memsim::Geometry;
use psder::Template;

use crate::absint::regions;
use crate::diag::{DiagCode, Diagnostic};

/// The default DTB entry count the CLI configures (`raul --dtb-entries`).
pub const DEFAULT_DTB_ENTRIES: usize = 64;

/// Translation working set of one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPressure {
    /// `<prelude>` or the procedure name.
    pub name: String,
    /// DTB entries the whole region needs (one per instruction).
    pub insts: u32,
    /// Translation storage the whole region needs, in short-instruction
    /// words.
    pub words: u32,
}

/// The statically hottest span: the largest loop body, or the largest
/// region when the program has no loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSpan {
    /// Region owning the span.
    pub region: String,
    /// First DIR address of the span.
    pub start: u32,
    /// One past the last DIR address.
    pub end: u32,
    /// DTB entries the span needs.
    pub insts: u32,
    /// Translation words the span needs.
    pub words: u32,
    /// Whether the span is a loop body (`false` = whole-region fallback).
    pub is_loop: bool,
}

/// What the pressure pass estimated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureReport {
    /// Per-region working sets, prelude first.
    pub regions: Vec<RegionPressure>,
    /// Whole-program translation storage bound in words.
    pub total_words: u32,
    /// The hottest span (absent only for empty programs).
    pub hot: Option<HotSpan>,
    /// Smallest 4-way geometry holding the hot span miss-free.
    pub recommended: Geometry,
    /// Whether the hot span fits the default DTB.
    pub fits_default: bool,
}

/// Computes the static DTB pressure bound of one program, with no
/// diagnostics: the admission-control entry point. A pool supervisor
/// calls this before admitting a tenant to reject programs whose
/// translation working set exceeds its watermark, or to right-size the
/// tenant's DTB to [`PressureReport::recommended`].
pub fn bound(program: &Program) -> PressureReport {
    let mut diags = Vec::new();
    estimate(program, &mut diags)
}

/// Estimates DTB pressure, appending a [`DiagCode::DtbPressure`] warning
/// when the hottest span cannot fit the default DTB.
pub(crate) fn estimate(program: &Program, diags: &mut Vec<Diagnostic>) -> PressureReport {
    // Translation length per DIR address. `next` only sizes the sequence's
    // continuation operand, so `i + 1` matches what the DTB would install.
    let words_at: Vec<u32> = program
        .code
        .iter()
        .enumerate()
        .map(|(i, &inst)| Template::new(inst, i as u32 + 1).len() as u32)
        .collect();
    let span_words =
        |start: u32, end: u32| words_at[start as usize..end as usize].iter().sum::<u32>();

    let mut region_pressure = Vec::new();
    let mut hot: Option<HotSpan> = None;
    let mut consider = |candidate: HotSpan| {
        if hot.as_ref().is_none_or(|h| candidate.insts > h.insts) {
            hot = Some(candidate);
        }
    };
    for r in regions(program) {
        if r.start >= r.end {
            continue;
        }
        region_pressure.push(RegionPressure {
            name: r.name.clone(),
            insts: r.end - r.start,
            words: span_words(r.start, r.end),
        });
        // Loop bodies: a backward branch at `i` targeting `t <= i` keeps
        // the span `[t, i]` live in the DTB across iterations.
        let mut found_loop = false;
        for i in r.start..r.end {
            if let Some(t) = program.code[i as usize].target() {
                if t <= i && t >= r.start {
                    found_loop = true;
                    consider(HotSpan {
                        region: r.name.clone(),
                        start: t,
                        end: i + 1,
                        insts: i + 1 - t,
                        words: span_words(t, i + 1),
                        is_loop: true,
                    });
                }
            }
        }
        if !found_loop {
            consider(HotSpan {
                region: r.name.clone(),
                start: r.start,
                end: r.end,
                insts: r.end - r.start,
                words: span_words(r.start, r.end),
                is_loop: false,
            });
        }
    }

    let hot_insts = hot.as_ref().map(|h| h.insts).unwrap_or(0) as usize;
    let fits_default = hot_insts <= DEFAULT_DTB_ENTRIES;
    if let Some(h) = hot.as_ref().filter(|_| !fits_default) {
        diags.push(Diagnostic::at(
            DiagCode::DtbPressure,
            h.start,
            h.region.clone(),
            format!(
                "hottest {} needs {} DTB entries ({} words); the default DTB holds {}",
                if h.is_loop { "loop" } else { "region" },
                h.insts,
                h.words,
                DEFAULT_DTB_ENTRIES
            ),
        ));
    }

    PressureReport {
        total_words: words_at.iter().sum(),
        regions: region_pressure,
        hot,
        recommended: Geometry::with_capacity(hot_insts.max(1), 4),
        fits_default,
    }
}
