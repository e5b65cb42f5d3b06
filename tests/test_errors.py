"""The input rules of `errors` and `braid` at every entry point: elements,
letters and words, counts, signed integers and braid values.

`CONTRACT` maps every public callable of ldlab to its count and braid
parameters, and a test fails when a public callable has no row."""

import importlib
import inspect
import pkgutil

import pytest

import ldlab
from ldlab import (braid, conjugacy, games, homology, invariants, laver, linalg,
                   magma, order, ybe)
from ldlab.errors import DomainError, check_letters, count, element, free_letters

D3 = magma.dihedral_quandle(3)
A2 = laver.build_laver_table(2)
F = homology.Cochain(3, 2, (0,) * 9)
W3 = braid.BraidWord(3, (1, 2))          # a positive word on 3 strands
B3 = braid.from_word(W3)

HOLES = {
    "mul-bool": lambda: D3.mul(True, 2),
    "mul-float": lambda: D3.mul(1.0, 2),
    "table-bool": lambda: magma.from_rows([[True]]),
    "table-float": lambda: magma.from_rows([[1.0]]),
    "left-inverse-bool": lambda: magma.left_inverse_op(D3, 1, True),
    "solution-bool": lambda: ybe.SetSolution(1, ((True, 1),)),
    "rho-bool": lambda: ybe.rack_to_solution(D3).rho(True, 1),
    "rho-float": lambda: ybe.rack_to_solution(D3).rho(1.0, 1),
    "general-op-bool": lambda: laver.build_general_table(3).op(1, True),
    "general-row-float": lambda: laver.build_general_table(3).row(1.0),
    "laver-op-bool": lambda: A2.op(True, 1),
    "laver-op-float": lambda: A2.op(1.0, 1),
    "laver-row-bool": lambda: A2.row(True),
    "period-float": lambda: laver.period(A2, 1.0),
    "project-bool": lambda: laver.project(2, True),
    "cochain-bool": lambda: F(True, 1),
    "cochain-float": lambda: F(1.0, 1),
    "theta-bool": lambda: homology.theta(D3, (True,)),
    "face-bool": lambda: homology.face_op(D3, "*", 1, (True, 2)),
    "word-bool": lambda: braid.BraidWord(3, (True,)),
    "word-float": lambda: braid.from_word(braid.BraidWord(3, (1.0,))),
    "sigma-bool": lambda: braid.sigma(3, True),
    "act-bool-letter": lambda: invariants.act_full(D3, (1, 2), (True,)),
    "act-float-letter": lambda: invariants.act_full(D3, (1, 2), (1.0,)),
    "shift-bool-colour": lambda: invariants.act_partial(invariants.IntegerShiftRack(),
                                                        (True, 2), (1,)),
    "free-reduce-bool": lambda: invariants.free_reduce((True, -1)),
    "free-colour-bool": lambda: invariants.act_partial(invariants.FreeConjugationRack(),
                                                       ((True,), (2,)), (1,)),
    "free-colour-float": lambda: invariants.act_partial(invariants.FreeConjugationRack(),
                                                        ((1.5,), (2,)), (1,)),
    "closure-no-strands": lambda: invariants.count_closure_colourings(D3, (), 0),
    "quandle-no-strands": lambda: invariants.fundamental_quandle((), 0),
    "wirtinger-no-strands": lambda: invariants.wirtinger_group((), 0),
    # sizes, degrees, strand counts, exponents, caps and levels
    "g3-run-float-cap": lambda: games.g3_run(games.G3State((1, 2)), 1.5),
    "laver-bool-size": lambda: laver.build_laver_table(True),
    "cocycle-bool-degree": lambda: homology.cocycle_space(D3, True),
    "cochain-bool-degree": lambda: homology.cochain_from_function(D3, True, lambda x: 0),
    "word-float-strands": lambda: braid.BraidWord(3.0, (1,)),
    "psi-float-q": lambda: homology.psi(1.0, 2),
    "kernel-float-coefficient": lambda: linalg.kernel_basis([[1, 2.5]], 2),
    "kernel-bool-dimension": lambda: linalg.kernel_basis([], True),
    "solve-float-coefficient": lambda: linalg.lattice_solve([[1, 2.5]], [1, 0]),
    "delta-float-power": lambda: braid.delta(3, 1.5),
    "braid-float-inf": lambda: braid.Braid(3, 0.0, ()),
    "embed-float-ambient": lambda: braid.embed(B3, 4.0),
    "general-float-size": lambda: laver.build_general_table(4.0),
    "affine-float-modulus": lambda: magma.affine_quandle(5.0, 2),
    "dihedral-float-size": lambda: magma.dihedral_quandle(2.5),
    "positive-braids-float-length": lambda: list(braid.positive_braids_up_to(3, 2.5)),
    "left-powers-float-count": lambda: laver.left_powers(A2, 1, 2.0),
    "ackermann-float-level": lambda: games.ackermann(1.5, 1),
    "homotopy-float-degree": lambda: homology.contracting_homotopy_check(D3, 1.5),
    # a Braid where letters are read
    "compare-d-braid": lambda: order.compare_D(B3, W3, 3),
    "d-floor-braid": lambda: order.d_floor(B3, 3),
    "closure-braid": lambda: invariants.count_closure_colourings(D3, B3, 3),
    "act-full-braid": lambda: invariants.act_full(D3, (1, 2, 3), B3),
    # a word on other strands than the ones it is read on
    "d-floor-other-strands": lambda: order.d_floor(braid.BraidWord(4, (1, 2, 1) * 2), 3),
    "act-full-other-strands": lambda: invariants.act_full(D3, (1, 2, 3),
                                                          braid.BraidWord(4, (1,))),
    # a letter sequence or a non-word where a BraidWord's strand count is read
    "from-word-sequence": lambda: braid.from_word((1, 2)),
    "from-word-int": lambda: braid.from_word(5),
    "render-word-sequence": lambda: braid.render_word((1, 2)),
    "sigma-positive-index-sequence": lambda: order.sigma_positive_index((1, 2)),
    # a splitting is a record of Braids
    "splitting-word-entry": lambda: order.SplittingSeq(3, (braid.BraidWord(2, (1,)),)),
}


@pytest.mark.parametrize("call", HOLES.values(), ids=HOLES.keys())
def test_non_elements_and_non_letters_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_rules_return_what_they_accept():
    assert element(3, 3) == 3
    assert check_letters([1, -2], 3) == (1, -2)
    assert check_letters((), 1) == ()
    assert free_letters([-(10 ** 20), 3]) == (-(10 ** 20), 3)
    assert braid.BraidWord(3, [1, -2]).letters == (1, -2)
    assert count(1, 1, "bound") == 1
    assert count(0, 0, "bound") == 0
    assert count(10 ** 20, 1, "bound") == 10 ** 20


@pytest.mark.parametrize("bad", [2.5, 1.0, True, False, 0, -1, "1", None])
def test_count_rule_rejects_non_counts(bad):
    with pytest.raises(DomainError, match="bound must be an integer >= 1"):
        count(bad, 1, "bound")


# ---------------------------------------------------------------------------
# the contract table

WORD = "word"     # letters are read: a BraidWord or a sequence, the same result
BRAIDWORD = "BraidWord"   # a word whose strand count is read: a BraidWord only
BRAID = "braid"   # a braid value: a Braid or a BraidWord, the same result
NF = "Braid"      # a record entry: a Braid only
INT = "int"       # a signed integer: no bools, no floats

S1 = games.G3State((1, 2))
X4 = braid.BraidWord(4, (1, 2, 3))

# module.name -> (call, params) or None.  call(**kw) calls the function on
# valid arguments, its keyword defaults, with kw replacing some of them;
# params maps each count parameter to its floor, and each other checked
# parameter to WORD, BRAIDWORD, BRAID, NF or INT.  None marks a callable that reads no
# count and no braid: an exception, a result record the library builds, or
# a function of tables, elements, permutations, chains or text.
CONTRACT = {
    "errors.DomainError": None,
    "errors.ResourceError": None,
    "errors.AmbiguousInverseError": None,
    "errors.StepCapError": None,
    "errors.element": None,        # the element rule; m is a checked table size
    "errors.count": None,          # the count rule; lo is the caller's floor
    "errors.check_letters": (lambda w=W3, n=3: check_letters(w, n), {"w": WORD, "n": 1}),
    "errors.free_letters": None,
    "errors.max_mem_bytes": None,
    "errors.guard_alloc": None,
    # the memoised permutation helpers run on every product and read
    # permutations, or the length of one, never a braid
    "braid.identity_perm": None,
    "braid.w0_perm": None,
    "braid.perm_mul": None,
    "braid.perm_inv": None,
    "braid.tau_perm": None,
    "braid.perm_len": None,
    "braid.left_descents": None,
    "braid.right_descents": None,
    "braid.Braid": (lambda n=3, inf=1: braid.Braid(n, inf, ()), {"n": 2, "inf": INT}),
    "braid.BraidWord": (lambda n=3: braid.BraidWord(n, (1,)), {"n": 2}),
    "braid.parse_word": (lambda n=3: braid.parse_word("1 -2", n), {"n": 2}),
    "braid.render_word": (lambda w=W3: braid.render_word(w), {"w": BRAIDWORD}),
    "braid.identity": (lambda n=3: braid.identity(n), {"n": 2}),
    "braid.sigma": (lambda n=3: braid.sigma(n, 1), {"n": 2}),
    "braid.delta": (lambda n=3, power=2: braid.delta(n, power), {"n": 2, "power": INT}),
    "braid.delta_word": (lambda n=3: braid.delta_word(n), {"n": 2}),
    "braid.mul": (lambda u=W3, v=W3: braid.mul(u, v), {"u": BRAID, "v": BRAID}),
    "braid.inverse": (lambda u=W3: braid.inverse(u), {"u": BRAID}),
    "braid.from_word": (lambda w=W3: braid.from_word(w), {"w": BRAIDWORD}),
    "braid.to_word": (lambda b=W3: braid.to_word(b), {"b": BRAID}),
    "braid.equal": (lambda u=W3, v=W3: braid.equal(u, v), {"u": BRAID, "v": BRAID}),
    "braid.is_positive": (lambda w=W3: braid.is_positive(w), {"w": BRAID}),
    "braid.braid_length": (lambda b=W3: braid.braid_length(b), {"b": BRAID}),
    "braid.right_divides": (lambda a=W3, b=W3: braid.right_divides(a, b),
                            {"a": BRAID, "b": BRAID}),
    "braid.left_divides": (lambda a=W3, b=W3: braid.left_divides(a, b),
                           {"a": BRAID, "b": BRAID}),
    "braid.left_gcd": (lambda a=W3, b=W3: braid.left_gcd(a, b), {"a": BRAID, "b": BRAID}),
    "braid.max_right_divisor_in_parabolic": (
        lambda b=W3, k=2: braid.max_right_divisor_in_parabolic(b, k), {"b": BRAID, "k": 2}),
    "braid.flip": (lambda b=W3, n=3: braid.flip(b, n), {"b": BRAID, "n": 2}),
    "braid.shift": (lambda b=W3, ambient=4: braid.shift(b, ambient),
                    {"b": BRAID, "ambient": 2}),
    "braid.embed": (lambda b=W3, ambient=4: braid.embed(b, ambient),
                    {"b": BRAID, "ambient": 2}),
    "braid.shifted_conj": (lambda beta=W3, gamma=W3, ambient=4:
                           braid.shifted_conj(beta, gamma, ambient),
                           {"beta": BRAID, "gamma": BRAID, "ambient": 2}),
    "braid.fraction_decomposition": (lambda w=W3: braid.fraction_decomposition(w),
                                     {"w": BRAID}),
    "braid.delta_decomposition": (lambda w=W3: braid.delta_decomposition(w), {"w": BRAID}),
    "braid.positive_braids_up_to": (
        lambda n=3, max_len=2: list(braid.positive_braids_up_to(n, max_len)),
        {"n": 2, "max_len": 0}),
    "braid.all_simples": (lambda n=3: list(braid.all_simples(n)), {"n": 2}),
    "order.sigma_positive_index": (lambda w=W3: order.sigma_positive_index(w),
                                   {"w": BRAIDWORD}),
    "order.SplittingSeq": (lambda n=3, e=braid.sigma(2, 1): order.SplittingSeq(n, (e,)),
                           {"n": 3, "e": NF}),
    "order.splitting": (lambda beta=W3, n=3: order.splitting(beta, n), {"beta": BRAID, "n": 3}),
    "order.is_normal": None,
    "order.flipped_key": (lambda beta=W3, n=3: order.flipped_key(beta, n),
                          {"beta": BRAID, "n": 2}),
    "order.compare_flipped": (lambda beta=W3, beta2=X4, n=4:
                              order.compare_flipped(beta, beta2, n),
                              {"beta": BRAID, "beta2": BRAID, "n": 2}),
    "order.compare_D": (lambda u=W3, v=W3, n=3: order.compare_D(u, v, n),
                        {"u": WORD, "v": WORD, "n": 2}),
    "order.OrdinalCNF": (lambda k=1, c=2: order.OrdinalCNF(((k, c),)), {"k": 0, "c": 1}),
    "order.ordinal_from_int": (lambda c=2: order.ordinal_from_int(c), {"c": 0}),
    "order.ordinal_add": None,
    "order.ordinal_cmp": None,
    "order.render_ordinal": None,
    "order.Bp3NormalForm": (lambda e=2: order.Bp3NormalForm((e,)), {"e": 1}),
    "order.bp3_normal_exponents": (lambda beta=W3: order.bp3_normal_exponents(beta),
                                   {"beta": BRAID}),
    "order.rank_bp3": (lambda beta=W3: order.rank_bp3(beta), {"beta": BRAID}),
    "order.alternating_normal_form": (lambda beta=W3, n=3:
                                      order.alternating_normal_form(beta, n),
                                      {"beta": BRAID, "n": 2}),
    "order.d_floor": (lambda w=W3, n=3: order.d_floor(w, n), {"w": WORD, "n": 2}),
    "conjugacy.ConjClass": None,
    "conjugacy.positive_conjugates": (
        lambda beta=W3, n=3, max_members=10: conjugacy.positive_conjugates(beta, n, max_members),
        {"beta": BRAID, "n": 2, "max_members": 1}),
    "conjugacy.mu": (lambda beta=W3, n=3, max_members=10: conjugacy.mu(beta, n, max_members),
                     {"beta": BRAID, "n": 2, "max_members": 1}),
    "conjugacy.is_conjugacy_min": (lambda beta=W3, n=3: conjugacy.is_conjugacy_min(beta, n),
                                   {"beta": BRAID, "n": 2}),
    "conjugacy.conjecture_mu_delta": (lambda beta=W3: conjugacy.conjecture_mu_delta(beta),
                                      {"beta": BRAID}),
    "conjugacy.SweepRow": None,
    "conjugacy.sweep_mu_delta": (lambda max_len=1: conjugacy.sweep_mu_delta(max_len),
                                 {"max_len": 0}),
    "games.G3State": (lambda t=1, steps=0: games.G3State((1,), t, steps), {"t": 1, "steps": 0}),
    "games.g3_start": (lambda beta=W3: games.g3_start(beta), {"beta": BRAID}),
    "games.g3_step": (lambda t=2: games.g3_step(S1, t), {"t": 1}),
    "games.g3_run": (lambda max_steps=3: games.g3_run(S1, max_steps), {"max_steps": 0}),
    "games.g3_length": (lambda beta=W3, cap=100: games.g3_length(beta, cap),
                        {"beta": BRAID, "cap": 0}),
    "games.g3_trace": (lambda beta=W3, limit=3: games.g3_trace(beta, limit),
                       {"beta": BRAID, "limit": 1}),
    "games.g3_is_descending": (lambda e=W3: games.g3_is_descending([e]), {"e": BRAID}),
    "games.g3_checkpoint": None,
    "games.g3_resume": None,
    "games.ackermann": (lambda r=2, x=3, bound=100: games.ackermann(r, x, bound),
                        {"r": 0, "x": 0, "bound": 0}),
    "games.ackermann_diag": (lambda x=2, bound=100: games.ackermann_diag(x, bound),
                             {"x": 0, "bound": 0}),
    "homology.face_op": None,      # the face index is an element of 1..k
    "homology.boundary": None,
    "homology.theta": None,
    "homology.theta_prime": None,
    "homology.contracting_homotopy_check": (
        lambda kmax=1: homology.contracting_homotopy_check(D3, kmax), {"kmax": 0}),
    "homology.Cochain": (lambda m=1, degree=1: homology.Cochain(m, degree, (0,)),
                         {"m": 1, "degree": 0}),
    "homology.cochain_from_function": (
        lambda degree=1: homology.cochain_from_function(D3, degree, lambda *t: 0),
        {"degree": 0}),
    "homology.evaluate_on_chain": None,
    "homology.coboundary_of": None,
    "homology.is_two_cocycle": None,
    "homology.is_three_cocycle": None,
    "homology.cocycle_space": (lambda degree=1: homology.cocycle_space(D3, degree),
                               {"degree": 0}),
    "homology.two_cocycle_space": None,
    "homology.three_cocycle_rank": None,
    "homology.psi": (lambda n=2: homology.psi(1, n), {"n": 0}),
    "homology.coboundary_preimage": None,   # reads the degree of a checked Cochain
    "invariants.act_positive": (lambda w=W3: invariants.act_positive(D3, (1, 2, 3), w),
                                {"w": WORD}),
    "invariants.act_full": (lambda w=W3: invariants.act_full(D3, (1, 2, 3), w), {"w": WORD}),
    "invariants.IntegerShiftRack": None,   # window bounds, signed and optional
    "invariants.FreeConjugationRack": None,
    "invariants.act_partial": (lambda w=W3: invariants.act_partial(D3, (1, 2, 3), w),
                               {"w": WORD}),
    "invariants.free_reduce": None,
    "invariants.free_inverse": None,
    "invariants.render_free_word": None,
    "invariants.count_closure_colourings": (
        lambda w=W3, m=3: invariants.count_closure_colourings(D3, w, m), {"w": WORD, "m": 1}),
    "invariants.cocycle_invariant": (
        lambda w=W3: invariants.cocycle_invariant(D3, F, w, (1, 2, 3)), {"w": WORD}),
    "invariants.QuandlePresentation": (lambda m=1: invariants.QuandlePresentation(m, ()),
                                       {"m": 1}),
    "invariants.fundamental_quandle": (lambda w=W3, m=3: invariants.fundamental_quandle(w, m),
                                       {"w": WORD, "m": 1}),
    "invariants.wirtinger_relations": (lambda w=W3, m=3: invariants.wirtinger_relations(w, m),
                                       {"w": WORD, "m": 1}),
    "invariants.wirtinger_group": (lambda w=W3, m=3: invariants.wirtinger_group(w, m),
                                   {"w": WORD, "m": 1}),
    "invariants.laver_fraction_colouring": (
        lambda n=2, w=W3: invariants.laver_fraction_colouring(n, w, (1, 2, 3)),
        {"n": 0, "w": WORD}),
    "laver.GeneralTable": None,
    "laver.LaverTable": None,
    "laver.build_general_table": (lambda N=3: laver.build_general_table(N), {"N": 1}),
    "laver.build_laver_table": (lambda n=2, max_n=3: laver.build_laver_table(n, max_n),
                                {"n": 0, "max_n": 0}),
    "laver.period": None,
    "laver.project": (lambda n=2: laver.project(n, 1), {"n": 1}),
    "laver.period_doubling_check": (lambda n=2, max_n=3: laver.period_doubling_check(n, max_n),
                                    {"n": 1, "max_n": 0}),
    "laver.left_powers": (lambda k=3: laver.left_powers(A2, 1, k), {"k": 1}),
    "laver.is_ld_for_size": (lambda N=4: laver.is_ld_for_size(N), {"N": 1}),
    "linalg.kernel_basis": (lambda c=-2, dim=2: linalg.kernel_basis([{0: 1, 1: c}], dim),
                            {"c": INT, "dim": 0}),
    "linalg.lattice_solve": (lambda c=3: linalg.lattice_solve([[1, c]], [2, 2 * c]),
                             {"c": INT}),
    "linalg.lattice_contains": (lambda c=3: linalg.lattice_contains([[1, c]], [2, 2 * c]),
                                {"c": INT}),
    "linalg.lattices_equal": (lambda c=3: linalg.lattices_equal([[1, c]], [[-1, -c]]),
                              {"c": INT}),
    "magma.LawCheck": None,
    "magma.FiniteMagma": (lambda m=1: magma.FiniteMagma(m, ((1,),)), {"m": 1}),
    "magma.from_rows": None,
    "magma.is_ld": None,
    "magma.is_left_cancellative": None,
    "magma.is_rack": None,
    "magma.is_quandle": None,
    "magma.satisfies_rump_law": None,
    "magma.left_inverse_op": None,
    "magma.dihedral_quandle": (lambda k=3: magma.dihedral_quandle(k), {"k": 1}),
    "magma.affine_quandle": (lambda m=5, t=2: magma.affine_quandle(m, t), {"m": 1, "t": INT}),
    "magma.conjugation_rack": None,
    "magma.left_translation_table": None,
    "magma.parse_rack_spec": None,
    "magma.QuandleTerm": (lambda gen=2: magma.QuandleTerm("gen", gen=gen), {"gen": 1}),
    "magma.gen": (lambda i=2: magma.gen(i), {"i": 1}),
    "magma.op_term": None,
    "magma.bar_term": None,
    "ybe.SetSolution": (lambda m=1: ybe.SetSolution(m, ((1, 1),)), {"m": 1}),
    "ybe.rack_to_solution": None,
    "ybe.ops_to_solution": None,
    "ybe.solution_ops": None,
    "ybe.switch_solution": (lambda m=2: ybe.switch_solution(m), {"m": 1}),
    "ybe.identity_solution": (lambda m=2: ybe.identity_solution(m), {"m": 1}),
    "ybe.first_projection": (lambda m=2: ybe.first_projection(m), {"m": 1}),
    "ybe.satisfies_braid_equation": None,
    "ybe.is_invertible": None,
    "ybe.BirackCheck": None,
    "ybe.birack_laws_check": None,
    "ybe.exchange_laws_hold": None,
    "ybe.matrix_entries": None,
    "ybe.dense_matrix": None,
    "ybe.export_matrix": None,
    "cli.build_parser": None,
    "cli.main": None,              # argparse reads the counts as ints
}

CHECKED = [(name, param, rule) for name, row in CONTRACT.items() if row
           for param, rule in row[1].items()]


def _public_callables():
    for info in pkgutil.iter_modules(ldlab.__path__):
        module = importlib.import_module(f"ldlab.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                yield f"{info.name}.{name}"


def test_every_public_callable_has_a_row():
    assert sorted(_public_callables()) == sorted(CONTRACT)


@pytest.mark.parametrize("name", [name for name, row in CONTRACT.items() if row])
def test_contract_rows_call_their_function_on_valid_arguments(name):
    call, params = CONTRACT[name]
    assert set(params) <= set(inspect.signature(call).parameters)
    call()


@pytest.mark.parametrize("name, param, rule", CHECKED,
                         ids=[f"{name}-{param}" for name, param, _ in CHECKED])
def test_contract_refuses_what_breaks_its_rule(name, param, rule):
    call = CONTRACT[name][0]
    valid = inspect.signature(call).parameters[param].default
    if rule == INT or isinstance(rule, int):
        # a bool, the valid value as a float, and for a count one below its floor
        bad = [True, float(valid)] + ([] if rule == INT else [rule - 1])
    elif rule == NF:
        bad = [braid.to_word(valid), 5]
    else:
        # the same value as the other braid kind, as letters, and a non-word
        as_braid, as_letters = braid.from_word(valid), valid.letters
        same = {WORD: [as_letters], BRAIDWORD: [], BRAID: [as_braid]}[rule]
        for value in same:
            assert call(**{param: value}) == call()
        bad = [v for v in (as_braid, as_letters, 5) if v not in same]
    for value in bad:
        with pytest.raises(DomainError):
            call(**{param: value})
