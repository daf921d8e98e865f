import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pkt import (
    StudentModel,
    adam_step,
    init_adam,
    init_student,
    load_model,
    save_model,
)
from pkt.gradcheck import max_relative_error
from pkt.student import BETA1, BETA2, EPS
from test_featio import FINITE_DOUBLES


def naive_forward(model, x):
    # per-sample, per-layer loops; no shared code with the batched pass
    outs = []
    n_layers = len(model.weights)
    for sample in x:
        h = np.array(sample, dtype=float)
        for i in range(n_layers):
            z = model.weights[i].T @ h + model.biases[i]
            h = z if i == n_layers - 1 else np.where(z > 0.0, z, 0.0)
        outs.append(h)
    return np.array(outs)


def fd_param_grads(model, x, loss_fn, h=1e-6):
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn(model.forward(x))
            p[idx] = orig - h
            down = loss_fn(model.forward(x))
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(g)
    return grads


def test_forward_matches_naive_loops():
    rng = np.random.default_rng(3)
    for dims in ([3, 4, 2], [5, 8, 8, 3], [2, 6]):
        model = init_student(dims, seed=int(rng.integers(0, 100)))
        x = rng.normal(size=(7, dims[0]))
        assert model.forward(x) == pytest.approx(naive_forward(model, x), abs=1e-12)


def test_relu_hidden_linear_output():
    # one hidden unit driven negative must be clamped; the output layer
    # passes negatives through untouched
    model = StudentModel([1, 2, 1],
                         weights=[np.array([[1.0, -1.0]]), np.array([[1.0], [-1.0]])],
                         biases=[np.zeros(2), np.zeros(1)])
    y = model.forward(np.array([[2.0], [-2.0]]))
    assert y[0, 0] == 2.0
    assert y[1, 0] == -2.0


def test_glorot_init_bounds_and_determinism():
    dims = [20, 50, 10]
    model = init_student(dims, seed=9)
    again = init_student(dims, seed=9)
    for w, fan_in, fan_out in zip(model.weights, dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
        assert np.max(np.abs(w)) > 0.5 * bound
    for b in model.biases:
        assert np.all(b == 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(model.parameters(), again.parameters()))
    assert not np.array_equal(model.weights[0], init_student(dims, seed=10).weights[0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    model = init_student([3, 4, 2], seed=1)
    x = rng.normal(size=(5, 3))
    c = rng.normal(size=(5, 2))

    for loss_fn, grad_y in (
        (lambda y: float(np.sum(c * y)), c),
        (lambda y: 0.5 * float(np.sum(y * y)), model.forward(x)),
    ):
        model.forward(x)
        analytic = model.backward(grad_y)
        numeric = fd_param_grads(model, x, loss_fn)
        for a, n in zip(analytic, numeric):
            assert max_relative_error(a, n) < 1e-6


def test_backward_shape_validation():
    model = init_student([3, 4, 2], seed=0)
    x = np.zeros((5, 3))
    model.forward(x)
    with pytest.raises(ValueError):
        model.backward(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        model.forward(np.zeros((5, 4)))


def test_backward_consumes_its_forward():
    model = init_student([3, 4, 2], seed=0)
    with pytest.raises(ValueError, match="forward"):
        model.backward(np.zeros((5, 2)))
    model.forward(np.ones((5, 3)))
    with pytest.raises(ValueError, match="shape"):
        model.backward(np.zeros((4, 2)))
    grads = model.backward(np.ones((5, 2)))
    assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
    with pytest.raises(ValueError, match="forward"):
        model.backward(np.ones((5, 2)))


def test_model_validation():
    with pytest.raises(ValueError):
        StudentModel([3], weights=[], biases=[])
    with pytest.raises(ValueError):
        StudentModel([3, 0], weights=[np.zeros((3, 0))], biases=[np.zeros(0)])
    with pytest.raises(ValueError):
        StudentModel([2, 2], weights=[np.zeros((2, 3))], biases=[np.zeros(2)])


@pytest.mark.parametrize("n_weights, n_biases", [(2, 2), (2, 1), (1, 2), (0, 0), (0, 1)])
def test_model_takes_one_weight_and_one_bias_per_layer(tmp_path, n_weights, n_biases):
    # [2, 3] is one layer: a second 3 x 3 layer would run in forward and be
    # saved as a file that load_model rejects; a missing one raised IndexError
    weights, biases = [np.zeros((2, 3)), np.zeros((3, 3))], [np.zeros(3), np.zeros(3)]
    with pytest.raises(ValueError, match=r"^weight and bias counts must equal len\(layer_dims\) - 1 = 1$"):
        StudentModel([2, 3], weights[:n_weights], biases[:n_biases])
    model = StudentModel([2, 3], weights[:1], biases[:1])
    save_model(model, tmp_path / "m.txt")
    assert load_model(tmp_path / "m.txt").layer_dims == [2, 3]


@pytest.mark.parametrize("dims", [[2, -1], [2, 0], [3], [-2, 4, 1]])
def test_init_student_checks_layer_dims_before_drawing(dims):
    with pytest.raises(ValueError, match=r"^layer_dims needs at least \[d_in, d_out\], all positive$"):
        init_student(dims, seed=0)


def test_adam_first_step_is_signed_lr():
    model = init_student([4, 3], seed=2)
    params = model.parameters()
    state = init_adam(params, lr=1e-3)
    rng = np.random.default_rng(0)
    grads = [rng.uniform(0.5, 2.0, size=p.shape) * np.sign(rng.normal(size=p.shape))
             for p in params]
    before = [p.copy() for p in params]
    adam_step(state, params, grads)
    for p, b, g in zip(params, before, grads):
        assert np.max(np.abs((p - b) + state.lr * np.sign(g))) <= state.lr * 1e-6
    assert state.step == 1


def test_adam_zero_gradient_is_stationary():
    model = init_student([3, 2], seed=4)
    params = model.parameters()
    state = init_adam(params)
    before = [p.copy() for p in params]
    adam_step(state, params, [np.zeros_like(p) for p in params])
    assert all(np.array_equal(p, b) for p, b in zip(params, before))


def test_adam_descends_on_quadratic():
    w = np.array([1.0])
    state = init_adam([w], lr=1e-4)
    for _ in range(100):
        adam_step(state, [w], [2.0 * w])
    assert 0.0 < w[0] < 1.0 - 50 * state.lr
    assert state.step == 100


def reference_adam_step(state, params, grads):
    # the out-of-place update the in-place one must reproduce bit for bit
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    root_c2 = np.sqrt(1.0 - BETA2 ** state.step)
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * (g * g)
        p -= (state.lr * root_c2 / c1) * (state.m[i] / (np.sqrt(state.v[i]) + EPS * root_c2))


def test_adam_in_place_matches_reference_bitwise():
    rng = np.random.default_rng(31)
    shapes = [(7, 5), (5,), (5, 3), (3,), (1, 1)]
    params = [rng.normal(size=s) for s in shapes]
    ref_params = [p.copy() for p in params]
    state = init_adam(params, lr=3e-3)
    ref_state = init_adam(ref_params, lr=3e-3)
    for _ in range(8):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        adam_step(state, params, grads)
        reference_adam_step(ref_state, ref_params, grads)
        for got, want in zip(params + state.m + state.v, ref_params + ref_state.m + ref_state.v):
            assert got.tobytes() == want.tobytes()
    assert state.step == ref_state.step == 8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 200), log_scale=st.floats(-12.0, 3.0),
       zero_share=st.sampled_from([0.0, 0.3, 1.0]), lr=st.sampled_from([1e-4, 1e-2, 0.5]))
def test_adam_steps_match_algorithm_1(seed, steps, log_scale, zero_share, lr):
    # Kingma & Ba's Algorithm 1 divides m and v by their bias corrections;
    # the step taken scales both by sqrt(c2) instead, which differs from it
    # by rounding alone.  The parameters are zeroed before each step, so
    # each holds minus its own update exactly.
    rng = np.random.default_rng(seed)
    shapes = [(6, 4), (4,), (1,)]
    params = [np.zeros(s) for s in shapes]
    state = init_adam(params, lr=lr)
    for _ in range(steps):
        grads = [rng.normal(size=s) * 10.0 ** log_scale * (rng.uniform(size=s) >= zero_share) for s in shapes]
        for p in params:
            p.fill(0.0)
        adam_step(state, params, grads)
        c1, c2 = 1.0 - BETA1 ** state.step, 1.0 - BETA2 ** state.step
        for p, m, v in zip(params, state.m, state.v):
            want = lr * (m / c1) / (np.sqrt(v / c2) + EPS)
            assert np.all(np.abs(-p - want) <= 4e-15 * np.abs(want))
    assert state.step == steps


def test_adam_step_allocates_no_array():
    rng = np.random.default_rng(5)
    params = [rng.normal(size=s) for s in [(64, 32), (512,), (32, 16), (1024,)]]
    grads = [rng.normal(size=p.shape) for p in params]
    state = init_adam(params)
    tracemalloc.start()
    try:
        for _ in range(3):
            adam_step(state, params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < min(p.nbytes for p in params)  # 4 KB; the loop's own objects take well under 1 KB


def test_adam_validation():
    with pytest.raises(ValueError):
        init_adam([np.zeros(2)], lr=0.0)
    state = init_adam([np.zeros(2)])
    with pytest.raises(ValueError):
        adam_step(state, [np.zeros(2), np.zeros(2)], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        adam_step(state, [np.zeros(2)], [np.zeros(3)])


def test_serialization_round_trip(tmp_path):
    model = init_student([5, 7, 3], seed=77)
    # drag in awkward magnitudes so the 17-digit format gets exercised
    model.weights[0][0, 0] = 1.0 / 3.0
    model.weights[1][2, 1] = 1e-15
    model.biases[0][:] = np.pi
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text()
    assert text.splitlines()[0] == "PKT-MODEL v1"
    assert text.splitlines()[1] == "dims 5 7 3"
    loaded = load_model(path)
    assert loaded.layer_dims == [5, 7, 3]
    assert all(np.array_equal(a, b) for a, b in zip(model.parameters(), loaded.parameters()))
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.txt"
    save_model(loaded, path2)
    assert path2.read_bytes() == path.read_bytes()


@st.composite
def drawn_models(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    weights = [draw(hnp.arrays(float, (a, b), elements=FINITE_DOUBLES)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [draw(hnp.arrays(float, (b,), elements=FINITE_DOUBLES)) for b in dims[1:]]
    return StudentModel(dims, weights, biases)


@settings(max_examples=60, deadline=None)
@given(model=drawn_models())
def test_serialization_round_trip_is_bitwise_exact_on_drawn_doubles(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.layer_dims == model.layer_dims
    assert [p.tobytes() for p in loaded.parameters()] == [p.tobytes() for p in model.parameters()]


@settings(max_examples=60, deadline=None)
@given(model=drawn_models())
def test_saved_bytes_equal_the_per_value_format(model):
    lines = ["PKT-MODEL v1", "dims " + " ".join(map(str, model.layer_dims))]
    for w, b in zip(model.weights, model.biases):
        lines += [" ".join(f"{x:.17g}" for x in row) for row in (*w, b)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_load_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.txt"
    save_model(init_student([2, 2], seed=0), good)
    lines = good.read_text().splitlines()

    bad = tmp_path / "bad.txt"
    bad.write_text("SOMETHING ELSE\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError):
        load_model(bad)
    bad.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        load_model(bad)
    bad.write_text(lines[0] + "\ndims 2\n")
    with pytest.raises(ValueError):
        load_model(bad)


def test_load_rejects_trailing_data_and_non_finite_weights(tmp_path):
    good = tmp_path / "good.txt"
    save_model(init_student([2, 3], seed=0), good)
    lines = good.read_text().splitlines()
    bad = tmp_path / "bad.txt"

    bad.write_text("\n".join(lines + ["1 2 3"]) + "\n")
    with pytest.raises(ValueError, match="trailing"):
        load_model(bad)
    for value in ("nan", "inf", "-inf"):
        row = lines[2].split()
        row[1] = value
        bad.write_text("\n".join(lines[:2] + [" ".join(row)] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_model(bad)
    # blank lines after the last layer are not data
    bad.write_text("\n".join(lines) + "\n\n")
    assert load_model(bad).layer_dims == [2, 3]


def _saved_lines(tmp_path, dims=(2, 3)):
    good = tmp_path / "good.txt"
    save_model(init_student(list(dims), seed=0), good)
    return good.read_text().splitlines()


def test_a_bad_token_names_the_file_line_and_column(tmp_path):
    lines = _saved_lines(tmp_path)
    bad = tmp_path / "bad.txt"
    row = lines[2].split()
    row[1] = "abc"
    bad.write_text("\n".join(lines[:2] + [" ".join(row)] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 3, column 2: 'abc' is not a number$"):
        load_model(bad)
    bad.write_text("\n".join([lines[0], "dims 3 x"] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 2, column 3: 'x' is not an integer$"):
        load_model(bad)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["SOMETHING ELSE"] + lines[1:], "not a PKT-MODEL v1 file"),
    (lambda lines: lines[:1], "missing dims line"),
    (lambda lines: [lines[0], "dims 2"] + lines[2:], "dims line needs at least two entries, all positive"),
    (lambda lines: [lines[0], "dims 2 0"] + lines[2:], "dims line needs at least two entries, all positive"),
    (lambda lines: lines[:-1], "model file truncated"),
    (lambda lines: lines[:2] + [lines[2] + " 1"] + lines[3:], "line 3 has 4 values, expected 3"),
    (lambda lines: lines[:4] + ["0 nan 0"], "line 5, column 2: non-finite value 'nan'"),
    (lambda lines: lines + ["", "1"], "trailing data after the last layer block"),
])
def test_every_load_error_names_the_file(tmp_path, edit, message):
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(_saved_lines(tmp_path))) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: {message}')}$"):
        load_model(bad)


def test_a_file_that_is_not_text_names_the_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"PKT-MODEL v1\ndims 1 1\n\xff\n0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: .*can't decode byte 0xff"):
        load_model(bad)


NON_FINITE_TOKENS = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"])


@settings(max_examples=60, deadline=None)
@given(model=drawn_models(), data=st.data(), token=NON_FINITE_TOKENS)
def test_load_rejects_a_non_finite_value_anywhere(model, data, token):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        line = data.draw(st.integers(2, len(lines) - 1))
        row = lines[line].split()
        column = data.draw(st.integers(0, len(row) - 1))
        row[column] = token
        lines[line] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        expected = f"{path}: line {line + 1}, column {column + 1}: non-finite value {token!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            load_model(path)


@settings(max_examples=60, deadline=None)
@given(model=drawn_models(), blank=st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=3),
       junk=st.text(st.characters(min_codepoint=1, max_codepoint=127), min_size=1).filter(str.strip))
def test_load_rejects_any_non_blank_trailing_data(model, blank, junk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        with open(path, "a") as fh:
            fh.write("".join(line + "\n" for line in blank) + junk + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: trailing data after the last layer block')}$"):
            load_model(path)
