#!/usr/bin/env python3
"""The paper's Section 4.3 story end-to-end: filter an image with every
blur variant, verify they agree, and compare devices — including why the
"Memory" variant vectorizes and the strided ones do not.

Run:  python examples/gaussian_blur_pipeline.py
"""

import numpy as np

from repro.devices import all_devices
from repro.exec import run_program
from repro.experiments.report import render_table, seconds_label
from repro.ir import find_loop
from repro.kernels import blur, common
from repro.simulate import simulate
from repro.transforms import AutoVectorize, for_device, vectorizable

H, W, F = 96, 112, 9


def checkerboard(height: int, width: int) -> np.ndarray:
    """A synthetic color image (H, W*3) with sharp edges to blur."""
    y, x = np.mgrid[0:height, 0:width]
    tile = ((x // 8 + y // 8) % 2).astype(np.float32)
    rgb = np.stack([tile, 1.0 - tile, 0.5 * tile], axis=-1)
    return rgb.reshape(height, width * 3)


def main() -> None:
    image = checkerboard(H, W)
    reference = blur.reference(image, F)

    print(f"image {W}x{H}x3, Gaussian filter F={F}")
    print("\n=== all five variants compute the same blur ===")
    for variant in blur.VARIANT_ORDER:
        program = blur.build(variant, H, W, F)
        output = run_program(program, {"src": image})["dst"]
        error = float(np.abs(output - reference).max())
        interior = output[F // 2 : H - F + F // 2, :]
        smoothness = float(np.abs(np.diff(interior, axis=0)).mean())
        print(f"  {variant:12s} max|err| = {error:.2e}   mean |d/dy| = {smoothness:.4f}")

    print("\n=== which inner loops would a compiler vectorize? ===")
    for variant in blur.VARIANT_ORDER:
        program = blur.build(variant, H, W, F)
        marked = AutoVectorize().run(program)
        vector_loops = [
            loop.var
            for loop in _innermost_loops(marked)
            if loop.vectorized
        ]
        reasons = [
            f"{loop.var}: {vectorizable(loop, min_trips=8)[1]}"
            for loop in _innermost_loops(program)
            if not vectorizable(loop, min_trips=8)[0]
        ]
        print(f"  {variant:12s} vectorized: {', '.join(vector_loops) or 'none':20}  blocked: {reasons or '-'}")

    print("\n=== simulated times per device (caches 1/16) ===")
    rows = []
    for device in all_devices():
        scaled = device.scaled(16)
        seconds = {}
        for variant in blur.VARIANT_ORDER:
            program = for_device(blur.build(variant, H, W, F), device)
            seconds[variant] = simulate(program, scaled).seconds
        naive = seconds["Naive"]
        rows.append(
            [device.key, seconds_label(naive)]
            + [f"{naive / seconds[v]:.2f}x" for v in blur.VARIANT_ORDER[1:]]
        )
    print(render_table(["device", "Naive"] + blur.VARIANT_ORDER[1:], rows))


def _innermost_loops(program):
    from repro.ir import For, loops_in, walk_stmts

    for loop in loops_in(program.body):
        if not any(isinstance(s, For) for s in walk_stmts(loop.body)):
            yield loop


if __name__ == "__main__":
    main()
