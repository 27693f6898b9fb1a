"""Functional decoding happens once per code block, behind one entry check."""

import dataclasses

import pytest

import decodex.backends.cpu as cpu
import decodex.backends.inline as inline
import decodex.backends.lookaside as lookaside
import decodex.bench.studies as studies
import decodex.bench.sweep as sweep
from decodex.backends import cpu_decode_batch
from decodex.bench import SweepConfig, run_bulk_study, run_parallel_study, run_sweep
from decodex.phy import generate_cell_vectors


def test_sweep_generates_and_decodes_each_cell_once(monkeypatch):
    generate = sweep.generate_cell_vectors
    decode = cpu.decode_layered_minsum
    generated_cbs = []
    decode_calls = []

    def counting_generate(*args, **kwargs):
        vectors = generate(*args, **kwargs)
        generated_cbs.append(sum(len(v.descriptors) for v in vectors))
        return vectors

    def counting_decode(*args, **kwargs):
        decode_calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(sweep, "generate_cell_vectors", counting_generate)
    for module in (cpu, lookaside, inline):
        monkeypatch.setattr(module, "decode_layered_minsum", counting_decode)

    kinds = ("cpu", "lookaside", "inline", "inline-unified")
    config = SweepConfig(
        backends=kinds, mcs_set=(0, 9), snr_grid_db=(8.0,), prb_set=(5, 30),
        n_tb=2, seed=21, workers=1,
    )
    records = run_sweep(config)

    assert [r.backend for r in records] == [k for k in kinds for _ in range(4)]
    assert all(r.failure is None for r in records)
    assert len(generated_cbs) == 4  # one generation per grid cell
    assert len(decode_calls) == sum(generated_cbs)  # one decode per code block


def test_studies_decode_each_code_block_once(monkeypatch):
    decode = cpu.decode_layered_minsum
    generated_cbs = []
    decode_calls = []

    def counting(fn, cbs_of):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            generated_cbs.append(cbs_of(result))
            return result

        return counted

    def counting_decode(*args, **kwargs):
        decode_calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(studies, "generate_cell_vectors", counting(
        studies.generate_cell_vectors, lambda vectors: sum(len(v.descriptors) for v in vectors)))
    monkeypatch.setattr(studies, "prepare_tb_vectors", counting(
        studies.prepare_tb_vectors, lambda vec: len(vec.descriptors)))
    monkeypatch.setattr(cpu, "decode_layered_minsum", counting_decode)

    run_bulk_study([1, 10])  # both rows share the 10 one-block ops of the largest
    assert (sum(generated_cbs), len(decode_calls)) == (10, 10)
    run_parallel_study([1, 2], 20)  # one TB per UE of each row
    assert len(generated_cbs) == 1 + 1 + 2
    assert len(decode_calls) == sum(generated_cbs)  # one decode per code block


def _without_llr():
    d = generate_cell_vectors(0, 2, 30.0, 1, seed=4)[0].descriptors[0]
    return dataclasses.replace(d, llr=None)


@pytest.mark.parametrize(
    "entry", [lambda d: cpu_decode_batch([d])], ids=["cpu_decode_batch"]
)
def test_missing_llr_is_one_named_error(entry):
    with pytest.raises(ValueError, match="^descriptor has no LLR input$"):
        entry(_without_llr())
