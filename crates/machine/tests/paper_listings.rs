//! Integration tests that execute the paper's code listings end-to-end on
//! the simulator: the Lst. 1 / Lst. 2 peak-throughput loops, the Lst. 3
//! two-step ZA load and the Lst. 5 in-register transposition.

use sme_isa::asm::Assembler;
use sme_isa::inst::{NeonInst, ScalarInst, SmeInst, SveInst};
use sme_isa::regs::short::*;
use sme_isa::regs::{TileSliceDir, ZaTile};
use sme_isa::types::{ElementType, NeonArrangement};
use sme_machine::exec::{RunOptions, Simulator};

/// Lst. 1: the Neon FMLA repeat loop returns 30·8 = 240 as its per-iteration
/// operation count and leaves the accumulators holding `reps · a · b`.
#[test]
fn listing_one_neon_loop() {
    let mut a = Assembler::new("listing1");
    let top = a.new_label();
    a.bind(top);
    a.push(ScalarInst::SubImm {
        rd: x(0),
        rn: x(0),
        imm12: 1,
        shift12: false,
    });
    for d in 0..30u8 {
        a.push(NeonInst::fmla_vec(v(d), v(30), v(31), NeonArrangement::S4));
    }
    a.cbnz(x(0), top);
    a.push(ScalarInst::mov_imm16(x(0), 30 * 8));
    a.ret();
    let program = a.finish();

    let mut sim = Simulator::m4_performance();
    sim.state.set_v_f32(v(30), [2.0; 4]);
    sim.state.set_v_f32(v(31), [3.0; 4]);
    let reps = 10u64;
    let result = sim.run(&program, &[reps], &RunOptions::functional_only());
    assert_eq!(result.return_value, 240);
    assert_eq!(sim.state.v_f32(v(0)), [60.0; 4], "10 iterations of += 2*3");
    assert_eq!(sim.state.v_f32(v(29)), [60.0; 4]);
}

/// Lst. 2: the FMOPA repeat loop accumulates `reps · 8` outer products into
/// each of the four FP32 tiles (32 FMOPAs rotate over 4 tiles).
#[test]
fn listing_two_fmopa_loop() {
    let mut a = Assembler::new("listing2");
    a.push(SveInst::ptrue(p(0), ElementType::I8));
    a.push(SveInst::ptrue(p(1), ElementType::I8));
    let top = a.new_label();
    a.bind(top);
    a.push(ScalarInst::SubImm {
        rd: x(0),
        rn: x(0),
        imm12: 1,
        shift12: false,
    });
    for i in 0..32u8 {
        a.push(SmeInst::fmopa_f32(i % 4, p(0), p(1), z(0), z(1)));
    }
    a.cbnz(x(0), top);
    a.mov_imm64(x(0), 32 * 512);
    a.ret();
    let program = a.finish();

    let mut sim = Simulator::m4_performance();
    sim.state.set_z_f32(z(0), &[1.0; 16]);
    sim.state.set_z_f32(z(1), &[0.5; 16]);
    let reps = 4u64;
    let result = sim.run(&program, &[reps], &RunOptions::functional_only());
    assert_eq!(result.return_value, 32 * 512);
    // Each tile receives 8 outer products per iteration: 4 * 8 * (1 * 0.5).
    for tile in 0..4u8 {
        assert_eq!(sim.state.za_tile_f32(tile)[7][11], 16.0, "tile {tile}");
    }
}

/// Lst. 3: load 256 bytes into four vector registers and move them into the
/// ZA array as a group — the two-step load strategy.
#[test]
fn listing_three_two_step_load() {
    let mut a = Assembler::new("listing3");
    a.push(SveInst::ptrue_cnt(pn(8), ElementType::F32));
    a.push(ScalarInst::mov_imm16(x(12), 0));
    a.push(SveInst::ld1w_multi(z(0), 4, pn(8), x(0), 0));
    a.push(SmeInst::MovaToTile {
        tile: ZaTile::s(0),
        dir: TileSliceDir::Horizontal,
        rs: x(12),
        offset: 0,
        zt: z(0),
        count: 4,
    });
    a.ret();
    let program = a.finish();

    let mut sim = Simulator::m4_performance();
    let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let addr = sim.mem.alloc_f32(&data, 128);
    sim.run(&program, &[addr], &RunOptions::functional_only());
    // Horizontal slices 0..3 of za0.s now hold the four loaded vectors.
    for slice in 0..4 {
        for lane in 0..16 {
            assert_eq!(
                sim.state.za_tile_f32(0)[slice][lane],
                (slice * 16 + lane) as f32,
                "slice {slice} lane {lane}"
            );
        }
    }
}

/// Lst. 5: writing a 16×16 block through the horizontal view and reading it
/// back through the vertical view transposes it.
#[test]
fn listing_five_transposes_a_block() {
    let mut a = Assembler::new("listing5");
    a.push(SveInst::ptrue_cnt(pn(8), ElementType::F32));
    a.push(ScalarInst::mov_imm16(x(12), 0));
    // Load 16 vectors (a full 16x16 block, one column per vector).
    for g in 0..4i8 {
        a.push(SveInst::ld1w_multi(z((g as u8) * 4), 4, pn(8), x(0), g));
    }
    // mov za0h.s[w12, g*4 : g*4+3], {z(g*4)..z(g*4+3)}
    for g in 0..4u8 {
        a.push(SmeInst::MovaToTile {
            tile: ZaTile::s(0),
            dir: TileSliceDir::Horizontal,
            rs: x(12),
            offset: g * 4,
            zt: z(g * 4),
            count: 4,
        });
    }
    // mov {z16+g*4..}, za0v.s[w12, g*4 : g*4+3]
    for g in 0..4u8 {
        a.push(SmeInst::MovaFromTile {
            tile: ZaTile::s(0),
            dir: TileSliceDir::Vertical,
            rs: x(12),
            offset: g * 4,
            zt: z(16 + g * 4),
            count: 4,
        });
    }
    // Store the transposed block to the destination buffer.
    for g in 0..4i8 {
        a.push(SveInst::st1w_multi(
            z(16 + (g as u8) * 4),
            4,
            pn(8),
            x(1),
            g,
        ));
    }
    a.ret();
    let program = a.finish();

    let mut sim = Simulator::m4_performance();
    let block: Vec<f32> = (0..256).map(|i| i as f32).collect();
    let src = sim.mem.alloc_f32(&block, 128);
    let dst = sim.mem.alloc_f32_zeroed(256, 128);
    sim.run(&program, &[src, dst], &RunOptions::functional_only());
    let out = sim.mem.read_f32_slice(dst, 256);
    for row in 0..16 {
        for col in 0..16 {
            assert_eq!(
                out[row * 16 + col],
                block[col * 16 + row],
                "transposed element ({row},{col})"
            );
        }
    }
}

/// The §III-C observation reproduced at the listing level: the same Lst. 2
/// loop restricted to a single tile is about four times slower.
#[test]
fn single_tile_loop_is_four_times_slower() {
    let build = |tiles: u8| {
        let mut a = Assembler::new("fmopa");
        a.push(SveInst::ptrue(p(0), ElementType::I8));
        a.push(SveInst::ptrue(p(1), ElementType::I8));
        let top = a.new_label();
        a.bind(top);
        a.push(ScalarInst::SubImm {
            rd: x(0),
            rn: x(0),
            imm12: 1,
            shift12: false,
        });
        for i in 0..32u8 {
            a.push(SmeInst::fmopa_f32(i % tiles, p(0), p(1), z(0), z(1)));
        }
        a.cbnz(x(0), top);
        a.ret();
        a.finish()
    };
    let mut sim = Simulator::m4_performance();
    let four = sim
        .run(&build(4), &[200], &RunOptions::timing_only())
        .stats
        .cycles;
    let mut sim = Simulator::m4_performance();
    let one = sim
        .run(&build(1), &[200], &RunOptions::timing_only())
        .stats
        .cycles;
    let ratio = one / four;
    assert!((ratio - 4.0).abs() < 0.3, "single-tile slowdown {ratio}");
}
