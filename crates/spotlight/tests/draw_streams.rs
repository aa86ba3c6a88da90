//! Pins the exact draw stream of every software-schedule sampler.
//!
//! The golden reports exercise only the Spotlight variant's guided
//! sampler. These pins also guard Spotlight-F's fixed-dataflow draws and
//! the style-constrained baseline draws (through [`Proposals`], as the
//! searches make them), the uniform sampler and the GA mutator: any
//! change to which schedules they draw, or to how many RNG words a draw
//! consumes, moves a digest here.
//!
//! Each stream draws 64 schedules per unique ResNet-50 and Transformer
//! layer, on two seeded edge-scale accelerators and three seeds, and
//! folds every tile, loop-order and unroll field into an FNV-1a digest
//! together with the ChaCha8 word position after each layer.

use std::collections::HashSet;
use std::hash::Hasher;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::swsearch::{sample_schedule_guided, Proposals};
use spotlight_accel::{DataflowStyle, HardwareConfig};
use spotlight_conv::{ConvLayer, DIMS};
use spotlight_models::{resnet50, transformer};
use spotlight_obs::seeded::Fnv1a;
use spotlight_space::{mutate, sample, ParamRanges, Schedule};

const DRAWS: usize = 64;
const SEEDS: [u64; 3] = [1, 2, 3];

fn layers() -> Vec<ConvLayer> {
    let mut seen = HashSet::new();
    [resnet50(), transformer()]
        .iter()
        .flat_map(|m| m.layers().iter().map(|e| e.layer))
        .filter(|l| seen.insert(*l))
        .collect()
}

fn accelerators() -> [HardwareConfig; 2] {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let ranges = ParamRanges::edge();
    let hws = [(); 2].map(|()| sample::sample_hw(&mut rng, &ranges));
    assert_ne!(hws[0], hws[1], "the two accelerators must differ");
    hws
}

fn hash_schedule(h: &mut Fnv1a, s: &Schedule) {
    for d in DIMS {
        h.write_u64(s.tiles().dram(d));
        h.write_u64(s.tiles().l2(d));
        h.write_u64(s.tiles().rf(d));
    }
    h.write_u64(s.outer_order().rank());
    h.write_u64(s.inner_order().rank());
    h.write_u64(s.outer_unroll().index() as u64);
    h.write_u64(s.inner_unroll().index() as u64);
}

/// Digest of a sampler's draws, and the word position each
/// (accelerator, seed) stream ends at. `draw` also receives the previous
/// draw for the layer (the trivial schedule first), so mutators chain.
fn stream(
    mut draw: impl FnMut(&mut ChaCha8Rng, &ConvLayer, &HardwareConfig, &Schedule) -> Schedule,
) -> (u64, Vec<u64>) {
    let layers = layers();
    let mut h = Fnv1a::default();
    let mut ends = Vec::new();
    for hw in accelerators() {
        for seed in SEEDS {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for layer in &layers {
                let mut prev = Schedule::trivial(layer);
                for _ in 0..DRAWS {
                    prev = draw(&mut rng, layer, &hw, &prev);
                    hash_schedule(&mut h, &prev);
                }
                h.write_u64(rng.word_pos());
            }
            ends.push(rng.word_pos());
        }
    }
    (h.finish(), ends)
}

fn assert_stream(name: &str, got: (u64, Vec<u64>), digest: u64, ends: [u64; 6]) {
    assert_eq!(
        got,
        (digest, ends.to_vec()),
        "{name}: draw stream moved (digest {:#018x}, word positions {:?})",
        got.0,
        got.1
    );
}

#[test]
fn guided_stream_is_pinned() {
    let got = stream(|rng, layer, hw, _| sample_schedule_guided(rng, layer, hw));
    assert_stream(
        "guided",
        got,
        0x2d1f_b6e1_8016_f3bb,
        [60938, 60725, 60458, 60938, 60725, 60458],
    );
}

/// Draws through the [`Proposals`] of the current (layer, accelerator),
/// built once per pair as a search builds them.
fn proposals_stream(
    mut draw: impl FnMut(&Proposals, &mut ChaCha8Rng) -> Schedule,
) -> (u64, Vec<u64>) {
    let mut built: Option<(ConvLayer, HardwareConfig, Proposals)> = None;
    stream(|rng, layer, hw, _| {
        if !matches!(&built, Some((l, h, _)) if l == layer && h == hw) {
            built = Some((*layer, *hw, Proposals::new(layer, hw)));
        }
        let (_, _, proposals) = built.as_ref().expect("built above");
        draw(proposals, rng)
    })
}

#[test]
fn fixed_dataflow_stream_is_pinned() {
    let got = proposals_stream(|proposals, rng| proposals.fixed_dataflow(rng));
    assert_stream(
        "fixed dataflow",
        got,
        0x6a11_553f_b4fc_f44a,
        [13288, 13257, 13412, 13288, 13257, 13412],
    );
}

#[test]
fn style_constrained_streams_are_pinned() {
    let pins: [(DataflowStyle, u64, [u64; 6]); 3] = [
        (
            DataflowStyle::RowStationary,
            0x86d1_c30b_8fe5_c241,
            [43075, 42783, 42810, 43075, 42783, 42810],
        ),
        (
            DataflowStyle::WeightStationary,
            0xe93c_8336_9708_c641,
            [43075, 42783, 42810, 43075, 42783, 42810],
        ),
        (
            DataflowStyle::OutputStationary,
            0x24c2_7d95_f191_aac1,
            [43075, 42783, 42810, 43075, 42783, 42810],
        ),
    ];
    assert_eq!(pins.map(|p| p.0), DataflowStyle::RIGID);
    for (style, digest, ends) in pins {
        let got = proposals_stream(|proposals, rng| proposals.style_constrained(rng, style));
        assert_stream(&format!("{style:?}"), got, digest, ends);
    }
}

#[test]
fn uniform_stream_is_pinned() {
    let got = stream(|rng, layer, _, _| sample::sample_schedule(rng, layer));
    assert_stream(
        "uniform",
        got,
        0xe1c0_dabd_9598_0e95,
        [57196, 57143, 57433, 57196, 57143, 57433],
    );
}

#[test]
fn mutation_stream_is_pinned() {
    let got = stream(|rng, layer, _, prev| mutate::mutate_schedule(rng, prev, layer));
    assert_stream(
        "mutation",
        got,
        0x30f8_267e_6d9f_f9ed,
        [9158, 9312, 9265, 9158, 9312, 9265],
    );
}
