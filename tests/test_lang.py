"""Tests for the concrete syntax: lexer, parser, pretty-printer round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import av, ch, inp, located, nil, out, pr, sys_par, var
from repro.core.errors import ParseError
from repro.core.names import Channel, Principal, Variable
from repro.core.process import InputSum, Match, Output, Parallel, Replication, Restriction
from repro.core.provenance import EMPTY, InputEvent, OutputEvent, Provenance
from repro.core.system import Located, Message, SysParallel, SysRestriction
from repro.lang import (
    parse_identifier,
    parse_process,
    parse_provenance,
    parse_system,
    pretty_process,
    pretty_provenance,
    pretty_system,
    tokenize,
)
from repro.lang.lexer import MAX_NESTING
from repro.patterns import parse_pattern
from repro.workloads.scaling import relay_guard
from tests.conftest import systems
from tests.lexer_oracle import oracle_tokenize


class TestLexer:
    def test_names_keywords_punctuation(self):
        kinds = [t.kind for t in tokenize("if m<v> then *P else 0")]
        assert kinds == ["if", "NAME", "<", "NAME", ">", "then", "*", "NAME",
                         "else", "NUMBER", "EOF"]

    def test_greedy_double_tokens(self):
        kinds = [t.kind for t in tokenize("a || b << >> | <")]
        assert kinds == ["NAME", "||", "NAME", "<<", ">>", "|", "<", "EOF"]

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("a # a comment\n b")]
        assert kinds == ["NAME", "NAME", "EOF"]

    def test_positions_reported(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unknown_character_rejected_with_position(self):
        with pytest.raises(ParseError) as info:
            tokenize("a $ b")
        assert info.value.column == 3

    def test_eof_after_trailing_comment_sits_at_the_comment(self):
        tokens = tokenize("a  # tail")
        assert (tokens[-1].kind, tokens[-1].line, tokens[-1].column) == (
            "EOF", 1, 4
        )

    def test_unicode_letters_and_digits(self):
        tokens = tokenize("é²x 1² a")
        assert [(t.kind, t.text) for t in tokens] == [
            ("NAME", "é²x"), ("NUMBER", "1²"), ("NAME", "a"), ("EOF", ""),
        ]

    def test_numeric_non_digit_is_foreign(self):
        # "½" is numeric but neither a letter nor a digit
        with pytest.raises(ParseError) as info:
            tokenize("a\n\tb ½")
        assert (info.value.line, info.value.column) == (2, 4)


def _lexed(lex, text):
    """A lexer's verdict on ``text``: positioned tokens or its error."""

    try:
        return [(t.kind, t.text, t.line, t.column) for t in lex(text)]
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


_FRAGMENTS = [
    *"[](){}<>|+-*!?~;:,.=", "<<", ">>", "||", "if", "then", "else", "new",
    "as", "any", "eps", "none", "m", "x'", "_b1", "0", "42", "é", "ñame",
    "中", "²", "x²", "½", " ", "\t", "\r", "\n", "\r\n", "#", "# note\n",
    "$", "@", "\x0b", "\u00a0", "\x00",
]


class TestScannerMatchesOracle:
    """The regex scanner against the character-loop oracle it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_FRAGMENTS) | st.characters(), max_size=40
        ).map("".join)
    )
    def test_same_tokens_positions_and_errors(self, text):
        assert _lexed(tokenize, text) == _lexed(oracle_tokenize, text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_same_on_arbitrary_text(self, text):
        assert _lexed(tokenize, text) == _lexed(oracle_tokenize, text)

    @settings(max_examples=60, deadline=None)
    @given(systems())
    def test_same_on_printed_systems(self, system):
        text = pretty_system(system)
        assert _lexed(tokenize, text) == _lexed(oracle_tokenize, text)


class TestParseProvenance:
    def test_empty(self):
        assert parse_provenance("{}") == EMPTY

    def test_events_most_recent_first(self):
        k = parse_provenance("{c?{}; a!{}}")
        assert k == Provenance.of(
            InputEvent(Principal("c"), EMPTY), OutputEvent(Principal("a"), EMPTY)
        )

    def test_nested_channel_provenance(self):
        k = parse_provenance("{a!{b?{}}}")
        assert k.head.channel_provenance.head == InputEvent(Principal("b"), EMPTY)

    def test_round_trip(self):
        text = "{c?{}; s!{a!{}}; a!{}}"
        assert pretty_provenance(parse_provenance(text)) == text


class TestParseIdentifier:
    def test_bare_name_is_channel_value(self):
        assert parse_identifier("m") == av(ch("m"))

    def test_principal_hint(self):
        assert parse_identifier("a", principals={"a"}) == av(pr("a"))

    def test_annotation_forces_value(self):
        value = parse_identifier("v:{a!{}}")
        assert value.provenance == Provenance.of(OutputEvent(Principal("a"), EMPTY))


class TestParseProcess:
    def test_output(self):
        p = parse_process("m<v, w>")
        assert isinstance(p, Output) and p.arity == 2

    def test_input_with_bare_binder_defaults_to_any(self):
        p = parse_process("m(x).n<x>")
        assert isinstance(p, InputSum)
        assert str(p.branches[0].patterns[0]) == "any"
        assert p.branches[0].binders == (Variable("x"),)

    def test_input_with_pattern(self):
        p = parse_process("m(c!any;any as x).0")
        assert "c!any;any" == str(p.branches[0].patterns[0])

    def test_bound_variable_recognized_in_continuation(self):
        p = parse_process("m(x).x<y>")
        continuation = p.branches[0].continuation
        assert continuation.channel == Variable("x")

    def test_sum_merges_branches_on_same_channel(self):
        p = parse_process("m(x).0 + m(y).0")
        assert isinstance(p, InputSum) and len(p.branches) == 2

    def test_sum_on_distinct_channels_rejected(self):
        with pytest.raises(ParseError):
            parse_process("m(x).0 + n(y).0")

    def test_sum_of_non_inputs_rejected(self):
        with pytest.raises(ParseError):
            parse_process("m<v> + m(x).0")

    def test_if_then_else(self):
        p = parse_process("if v = w then m<v> else n<w>")
        assert isinstance(p, Match)

    def test_dangling_else_binds_inner(self):
        p = parse_process("if a = b then if c = d then m<v> else n<v> else k<v>")
        assert isinstance(p, Match)
        assert isinstance(p.then_branch, Match)

    def test_restriction_and_replication(self):
        p = parse_process("(new k)(*(k<v>))")
        assert isinstance(p, Restriction)
        assert isinstance(p.body, Replication)

    def test_parallel(self):
        p = parse_process("m<v> | n<w> | 0")
        assert isinstance(p, Parallel) and len(p.parts) == 3

    def test_polyadic_input(self):
        p = parse_process("m(any as x, c!any as y).0")
        assert p.branches[0].arity == 2


class TestParseSystem:
    def test_located_names_become_principals(self):
        s = parse_system("a[m<a>]")
        assert isinstance(s, Located)
        # the payload `a` refers to the principal, not a channel
        assert s.process.payload[0] == av(pr("a"))

    def test_forward_located_reference(self):
        s = parse_system("x[m<b>] || b[m(y).0]")
        assert s.parts[0].process.payload[0] == av(pr("b"))

    def test_message(self):
        s = parse_system("m<<v, w>>")
        assert isinstance(s, Message) and s.arity == 2

    def test_message_with_provenance(self):
        s = parse_system("m<<v:{a!{}}>>")
        assert s.payload[0].provenance == Provenance.of(
            OutputEvent(Principal("a"), EMPTY)
        )

    def test_system_restriction(self):
        s = parse_system("(new n)(a[n<v>] || b[n(x).0])")
        assert isinstance(s, SysRestriction)

    def test_empty_system(self):
        assert parse_system("0") == SysParallel(())

    def test_extra_principals_argument(self):
        s = parse_system("m<<d>>", principals={"d"})
        assert s.payload[0] == av(pr("d"))

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_system("a[0] ]")


class TestRoundTrip:
    CASES = [
        "a[m<v>]",
        "m<<v, w>>",
        "a[m(any as x).n<x>]",
        "a[(m(any as x).0 + m(eps as y).k<y>)]",
        "a[if v = w then m<v> else 0]",
        "(new n)(a[n<v>] || b[n(any as x).0])",
        "a[*(m<v>)]",
        "a[(new k)(k<v>)]",
        "a[(m<v> | n<w>)]" ,
        "m<<v:{c?{}; s!{}; s?{}; a!{}}>>",
        "a[pub((any;c1!any) as x, any as y).0]",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_pretty_parse_fixpoint(self, text):
        once = parse_system(text)
        again = parse_system(pretty_system(once))
        assert once == again

    @settings(max_examples=60, deadline=None)
    @given(systems())
    def test_random_system_round_trip(self, system):
        printed = pretty_system(system)
        principals = {p.name for p in _hosts(system)}
        reparsed = parse_system(printed, principals=principals)
        assert reparsed == system


def relay(layout, guard_of=lambda lane, hop: relay_guard()):
    """``s_k[t_i(π as x).t_{i+1}<x>]`` per hop, lanes in parallel — the
    shape of the full-stack benchmark's relay workload."""

    x = var("x")
    components = []
    for lane, servers in enumerate(layout):
        channels = [ch(f"t{lane}_{i}") for i in range(len(servers))]
        components.append(
            located(pr(f"s{servers[0]}"), out(channels[0], ch(f"v{lane}")))
        )
        for i in range(1, len(servers)):
            body = out(channels[i], x) if i + 1 < len(servers) else nil()
            components.append(
                located(
                    pr(f"s{servers[i]}"),
                    inp(channels[i - 1], (guard_of(lane, i), x), body=body),
                )
            )
    return sys_par(*components)


def _guards(system):
    return [
        branch.patterns[0]
        for part in system.parts
        if isinstance(part.process, InputSum)
        for branch in part.process.branches
    ]


class TestRelayFrontEnd:
    """A 2,048-hop relay manifest through the front end."""

    LAYOUT = [[(lane * 7 + hop) % 64 for hop in range(65)] for lane in range(32)]

    def test_round_trip_is_exact(self):
        system = relay(self.LAYOUT)
        text = pretty_system(system)
        reparsed = parse_system(text)
        assert len(_guards(reparsed)) == 2048
        assert reparsed == system
        assert pretty_system(reparsed) == text

    def test_every_hop_shares_one_guard_object(self):
        guards = _guards(parse_system(pretty_system(relay(self.LAYOUT))))
        assert guards[0] == relay_guard()
        assert all(guard is guards[0] for guard in guards)

    def test_different_guard_text_is_not_shared(self):
        other = parse_pattern("s1!any;any")

        def guard_of(lane, hop):
            return other if (lane, hop) == (3, 5) else relay_guard()

        system = relay(self.LAYOUT, guard_of)
        guards = _guards(parse_system(pretty_system(system)))
        odd = guards[3 * 64 + 4]
        assert odd == other and odd is not guards[0]
        assert sum(guard is guards[0] for guard in guards) == 2047

    def test_same_guard_text_in_other_parses_is_parsed_afresh(self):
        first = _guards(parse_system(pretty_system(relay(self.LAYOUT[:1]))))
        second = _guards(parse_system(pretty_system(relay(self.LAYOUT[:1]))))
        assert first[0] == second[0] and first[0] is not second[0]


class TestHostileNesting:
    """Nesting past MAX_NESTING is a positioned ParseError, not a
    RecursionError, in each of the three nested shapes."""

    DEPTH = 5000

    @pytest.mark.parametrize(
        "text, column",
        [
            ("a[" + "(" * DEPTH + "m<v>" + ")" * DEPTH + "]", 2 + MAX_NESTING),
            (
                "a[m(" + "(" * DEPTH + "~" + ")" * DEPTH + "!any as x).0]",
                4 + MAX_NESTING,
            ),
            (
                "m<<v:" + "{a!" * DEPTH + "{}" + "}" * DEPTH + ">>",
                4 + 3 * MAX_NESTING,
            ),
        ],
        ids=["process", "pattern-group", "provenance"],
    )
    def test_deep_nesting_is_a_positioned_parse_error(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_system(text)
        assert "nesting deeper than" in str(info.value)
        assert (info.value.line, info.value.column) == (1, column)

    @pytest.mark.parametrize(
        "text",
        [
            "a[" + "*" * DEPTH + "m<v>]",
            "a[" + "m(x)." * DEPTH + "0]",
            "a[m(" + "c!" * DEPTH + "any as x).0]",
            "(" * DEPTH + "a[0]" + ")" * DEPTH,
        ],
        ids=["replication", "prefix-chain", "event-chain", "system"],
    )
    def test_other_deep_shapes_fail_typed(self, text):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_system(text)

    def test_nesting_within_the_limit_parses(self):
        depth = MAX_NESTING // 2
        text = "a[m(" + "(" * depth + "any" + ")" * depth + " as x).0]"
        assert str(parse_system(text).process.branches[0].patterns[0]) == "any"

    def test_non_ascii_name_is_a_positioned_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_system("a[m<v>] ||\n b[m(é).0]")
        assert "invalid name 'é'" in str(info.value)
        assert (info.value.line, info.value.column) == (2, 6)


def _hosts(system):
    from repro.core.system import system_principals

    return system_principals(system)
