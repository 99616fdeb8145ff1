"""Output checks computed apart from the program.

Every check here recomputes a result from the corpus's own data — the
Fingerprint object of each session, the per-request anti-bot Decision
objects, the row timestamps — with the benchmark's code, and compares
the program's output with it.  No check compares with a stored copy of
an earlier output.

Verdicts are kept as compact arrays (:class:`VerdictCodes`), never as
per-row objects, so that holding them does not grow the heap the timed
calls collect.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fingerprint.attributes import Attribute

#: The temporal rule of the paper (§7.2): attributes that cannot change
#: for one cookie (any change flags) and the browser timezone per source
#: address (a third distinct zone flags).
TEMPORAL_RULES: Tuple[Tuple[str, Attribute, int], ...] = (
    ("cookie", Attribute.PLATFORM, 1),
    ("cookie", Attribute.HARDWARE_CONCURRENCY, 1),
    ("cookie", Attribute.DEVICE_MEMORY, 1),
    ("cookie", Attribute.MAX_TOUCH_POINTS, 1),
    ("cookie", Attribute.COLOR_DEPTH, 1),
    ("ip", Attribute.TIMEZONE, 2),
)

#: Bit of each (key kind, attribute) in a row's temporal bit mask.
TEMPORAL_BITS: Dict[Tuple[str, Attribute], int] = {
    (kind, attribute): bit for bit, (kind, attribute, _tol) in enumerate(TEMPORAL_RULES)
}

#: Rule code of a row that no rule flags, and of a row flagged by the
#: generalised Location check instead of a listed rule.
NO_RULE = -1
LOCATION_RULE = -2


def knowledge_base():
    """The device knowledge base the Location check consults."""

    from repro.core.spatial import SpatialInconsistencyMiner

    return SpatialInconsistencyMiner().knowledge


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's recount."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- compact verdicts -----------------------------------------------------------


class VerdictCodes:
    """Verdicts of one pass as arrays indexed by arrival position.

    ``request_id`` per position, ``rule`` (index into the filter list that
    scored the row, :data:`NO_RULE` or :data:`LOCATION_RULE`) and
    ``temporal`` (bit mask over :data:`TEMPORAL_RULES`).
    """

    def __init__(self, n_rows: int):
        self.request_id = np.full(n_rows, -1, dtype=np.int64)
        self.rule = np.full(n_rows, NO_RULE, dtype=np.int32)
        self.temporal = np.zeros(n_rows, dtype=np.uint8)

    def record(self, start: int, verdicts, rule_index: Dict[tuple, int]) -> int:
        """Store one batch's verdicts from position *start*; returns their count."""

        position = start
        for request_id, verdict in verdicts.items():
            self.request_id[position] = request_id
            rule = verdict.spatial_rule
            if rule is not None:
                self.rule[position] = rule_index.get((rule.key, rule.support), LOCATION_RULE)
            bits = 0
            for flag in verdict.temporal_flags:
                bits |= 1 << TEMPORAL_BITS[(flag.key_kind, flag.attribute)]
            self.temporal[position] = bits
            position += 1
        return position - start

    def same_as(self, other: "VerdictCodes") -> bool:
        return (
            np.array_equal(self.request_id, other.request_id)
            and np.array_equal(self.rule, other.rule)
            and np.array_equal(self.temporal, other.temporal)
        )


def rule_index_of(filter_list) -> Dict[tuple, int]:
    """Each listed rule's identity → its position in the list.

    Rules are matched by value (pair and support), not by object: verdicts
    scored in worker processes carry copies.  A Location rule the
    classifier synthesises has support 0, which no mined rule has.
    """

    return {(rule.key, rule.support): position for position, rule in enumerate(filter_list)}


def encode_verdicts(verdicts, order_ids: np.ndarray, filter_list) -> VerdictCodes:
    """Compact form of a whole-table verdict mapping, in arrival order."""

    codes = VerdictCodes(order_ids.size)
    ordered = {int(request_id): verdicts[int(request_id)] for request_id in order_ids}
    codes.record(0, ordered, rule_index_of(filter_list))
    return codes


def rule_precedence(filter_list) -> Dict[Attribute, Dict[Tuple[type, object], List[int]]]:
    """Rule positions in the filter list's documented match precedence.

    By first attribute in order of first appearance, then by first value
    in order of first appearance, then in list order: the first rule in
    this order whose two values a fingerprint carries is the one reported.
    """

    precedence: Dict[Attribute, Dict[Tuple[type, object], List[int]]] = {}
    for position, rule in enumerate(filter_list):
        precedence.setdefault(rule.attribute_a, {}).setdefault(
            (type(rule.value_a), rule.value_a), []
        ).append(position)
    return precedence


# -- per-row values ---------------------------------------------------------------


def _factorize(values: Sequence) -> Tuple[np.ndarray, List]:
    """Codes into a first-occurrence value list; ``None`` becomes -1."""

    index: Dict[Tuple[type, object], int] = {}
    decoded: List = []
    codes = np.empty(len(values), dtype=np.int64)
    for position, value in enumerate(values):
        if value is None:
            codes[position] = -1
            continue
        # Keyed on (type, value) so that 1, 1.0 and True stay distinct.
        key = (type(value), value)
        code = index.get(key)
        if code is None:
            code = index[key] = len(decoded)
            decoded.append(value)
        codes[position] = code
    return codes, decoded


class RowValues:
    """Per-row attribute values and device keys of one request store.

    Values are the grouping form of each session's
    :class:`~repro.fingerprint.fingerprint.Fingerprint` object, the form
    rules are written in; keys are the served cookie and the source
    address of each row.  Rows follow the store's order.
    """

    def __init__(
        self,
        codes: Dict[Attribute, np.ndarray],
        values: Dict[Attribute, List],
        keys: Dict[str, np.ndarray],
        timestamps: np.ndarray,
    ):
        self.codes = codes
        self.values = values
        #: "cookie" / "ip" → per-row key code, -1 where the row has no key
        self.keys = keys
        self.timestamps = timestamps
        self._lookup: Dict[Attribute, Dict[Tuple[type, object], int]] = {}

    @classmethod
    def from_store(cls, store, attributes: Iterable[Attribute]) -> "RowValues":
        columns = store.columns
        fingerprints = columns.session_fingerprints
        session_codes = np.asarray(columns.session_codes, dtype=np.int64)
        codes: Dict[Attribute, np.ndarray] = {}
        values: Dict[Attribute, List] = {}
        wanted = list(dict.fromkeys(list(attributes) + [rule[1] for rule in TEMPORAL_RULES]))
        decoded_sessions = [fingerprints[session] for session in range(columns.n_sessions)]
        for attribute in wanted:
            session_values, decoded = _factorize(
                [fingerprint.value_for_grouping(attribute) for fingerprint in decoded_sessions]
            )
            codes[attribute] = session_values[session_codes]
            values[attribute] = decoded
        cookies = [columns.cookie_values[code] if code >= 0 else None
                   for code in np.asarray(columns.served_codes).tolist()]
        addresses = [columns.session_ips[code] for code in session_codes.tolist()]
        keys = {}
        for kind, raw in (("cookie", cookies), ("ip", addresses)):
            # A falsy key ("" cookie) identifies no device.
            key_codes, _decoded = _factorize([value if value else None for value in raw])
            keys[kind] = key_codes
        return cls(codes, values, keys, np.asarray(columns.timestamps, dtype=np.float64))

    @property
    def n_rows(self) -> int:
        return int(self.timestamps.size)

    def arrival_order(self) -> np.ndarray:
        """Rows in arrival order: by timestamp, store order among equals."""

        return np.argsort(self.timestamps, kind="stable")

    def code_of(self, attribute: Attribute, value) -> Optional[int]:
        lookup = self._lookup.get(attribute)
        if lookup is None:
            lookup = {
                (type(decoded), decoded): code
                for code, decoded in enumerate(self.values[attribute])
            }
            self._lookup[attribute] = lookup
        return lookup.get((type(value), value))

    def value(self, attribute: Attribute, row: int):
        code = int(self.codes[attribute][row])
        return None if code < 0 else self.values[attribute][code]

    # -- spatial ----------------------------------------------------------------

    def pair_mask(self, rule, rows: np.ndarray) -> np.ndarray:
        """Which of *rows* carry both values of *rule*."""

        code_a = self.code_of(rule.attribute_a, rule.value_a)
        code_b = self.code_of(rule.attribute_b, rule.value_b)
        if code_a is None or code_b is None:
            return np.zeros(rows.size, dtype=bool)
        return (self.codes[rule.attribute_a][rows] == code_a) & (
            self.codes[rule.attribute_b][rows] == code_b
        )

    def listed_hits(self, filter_list, rows: np.ndarray) -> np.ndarray:
        """Which of *rows* carry the value pair of at least one listed rule."""

        hits = np.zeros(rows.size, dtype=bool)
        for rule in filter_list:
            hits |= self.pair_mask(rule, rows)
        return hits

    def location_flags(self, knowledge, rows: np.ndarray) -> np.ndarray:
        """Rows whose (IP country, timezone) the knowledge base calls impossible."""

        country = self.codes[Attribute.IP_COUNTRY][rows]
        timezone = self.codes[Attribute.TIMEZONE][rows]
        flags = np.zeros(rows.size, dtype=bool)
        both = (country >= 0) & (timezone >= 0)
        if not both.any():
            return flags
        combos = np.unique(np.stack([country[both], timezone[both]], axis=1), axis=0)
        impossible = set()
        for country_code, timezone_code in combos.tolist():
            verdict = knowledge.is_pair_consistent(
                Attribute.IP_COUNTRY,
                self.values[Attribute.IP_COUNTRY][country_code],
                Attribute.TIMEZONE,
                self.values[Attribute.TIMEZONE][timezone_code],
            )
            if verdict is False:
                impossible.add((country_code, timezone_code))
        if impossible:
            flags[both] = [
                (c, t) in impossible
                for c, t in zip(country[both].tolist(), timezone[both].tolist())
            ]
        return flags

    def spatial_flags(self, filter_list, knowledge, rows: np.ndarray) -> np.ndarray:
        return self.listed_hits(filter_list, rows) | self.location_flags(knowledge, rows)

    def expected_rule(self, precedence, filter_list, knowledge, row: int) -> int:
        """The rule code a correct classifier gives *row*, evaluated directly.

        Rules are tried in the filter list's documented precedence
        (:func:`rule_precedence`); a row no rule matches falls to the
        Location check.
        """

        rules = filter_list.rules
        for attribute, by_value in precedence.items():
            observed = self.value(attribute, row)
            if observed is None:
                continue
            for position in by_value.get((type(observed), observed), ()):
                rule = rules[position]
                if self.value(rule.attribute_b, row) == rule.value_b:
                    return position
        country = self.value(Attribute.IP_COUNTRY, row)
        timezone = self.value(Attribute.TIMEZONE, row)
        if country is not None and timezone is not None:
            consistent = knowledge.is_pair_consistent(
                Attribute.IP_COUNTRY, country, Attribute.TIMEZONE, timezone
            )
            if consistent is False:
                return LOCATION_RULE
        return NO_RULE

    # -- temporal ---------------------------------------------------------------

    def temporal_bits(self, order: np.ndarray) -> np.ndarray:
        """Per-row temporal bit masks, recounted in arrival *order*.

        A row is flagged for a (key, attribute) when it brings a value
        not seen before for its key and the key already holds ``tolerance``
        distinct values.
        """

        bits = np.zeros(self.n_rows, dtype=np.uint8)
        for bit, (kind, attribute, tolerance) in enumerate(TEMPORAL_RULES):
            keys = self.keys[kind]
            values = self.codes[attribute]
            rows = order[(keys[order] >= 0) & (values[order] >= 0)]
            if rows.size == 0:
                continue
            pairs = keys[rows] * (int(values.max()) + 1) + values[rows]
            _unique, first = np.unique(pairs, return_index=True)
            first_rows = rows[np.sort(first)]
            by_key = np.argsort(keys[first_rows], kind="stable")
            grouped = keys[first_rows][by_key]
            starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
            sizes = np.diff(np.r_[starts, grouped.size])
            rank = np.arange(grouped.size) - np.repeat(starts, sizes)
            bits[first_rows[by_key][rank >= tolerance]] |= np.uint8(1 << bit)
        return bits


# -- evaluation tables ------------------------------------------------------------


def evaded_by_decisions(store, detector: str) -> np.ndarray:
    """Per-row evasion of *detector*, from the per-request Decision objects."""

    columns = store.columns
    decisions = columns.decisions
    per_session = (
        columns.session_datadome if detector == "DataDome" else columns.session_botd
    )
    evaded = np.array([not decisions[code].is_bot for code in range(len(decisions))],
                      dtype=bool)
    return evaded[np.asarray(per_session)][np.asarray(columns.session_codes)]


def check_table1(store, rows: Sequence[Dict]) -> None:
    """Table 1 rates equal this benchmark's count of undetected requests."""

    columns = store.columns
    source_codes = np.asarray(columns.source_codes)
    evaded = {name: evaded_by_decisions(store, name) for name in ("DataDome", "BotD")}
    require(len(rows) > 0, "Table 1 has no rows")
    seen = set()
    for row in rows:
        code = columns.sources.index(row["service"])
        mask = source_codes == code
        total = int(mask.sum())
        seen.add(row["service"])
        require(row["num_requests"] == total,
                f"Table 1 {row['service']}: {row['num_requests']} requests, counted {total}")
        for name, key in (("DataDome", "datadome_evasion_rate"), ("BotD", "botd_evasion_rate")):
            expected = int((mask & evaded[name]).sum()) / total
            require(row[key] == expected,
                    f"Table 1 {row['service']} {name}: rate {row[key]!r}, counted {expected!r}")
    present = {columns.sources[code] for code in np.unique(source_codes).tolist()}
    require(seen == present, f"Table 1 services {sorted(seen)} != corpus {sorted(present)}")


def check_evasion_reductions(store, flagged: np.ndarray, reductions: Dict[str, float]) -> None:
    """Each Table 4 reduction is the share of evading requests the verdicts flag."""

    for name in ("DataDome", "BotD"):
        evaded = evaded_by_decisions(store, name)
        expected = int((evaded & flagged).sum()) / int(evaded.sum())
        require(abs(reductions[name] - expected) <= 1e-12,
                f"Table 4 {name} evasion reduction {reductions[name]!r}, counted {expected!r}")


def check_tnr(tnr: float, flagged: np.ndarray) -> None:
    """The real-user true-negative rate is one minus the flagged share."""

    expected = 1.0 - int(flagged.sum()) / flagged.size
    require(abs(tnr - expected) <= 1e-12, f"real-user TNR {tnr!r}, counted {expected!r}")


def check_supports(filter_list, rows_values: RowValues, rows: np.ndarray, what: str) -> None:
    """Every rule's support is the number of *rows* carrying both its values."""

    require(len(filter_list) > 0, f"{what}: empty filter list")
    for rule in filter_list:
        counted = int(rows_values.pair_mask(rule, rows).sum())
        require(rule.support == counted,
                f"{what}: rule {rule.describe()} support {rule.support}, counted {counted}")


def check_verdicts(
    codes: VerdictCodes,
    rows_values: RowValues,
    order: np.ndarray,
    request_ids: np.ndarray,
    segments: Sequence[Tuple[int, int, object]],
    knowledge,
    sample: np.ndarray,
    what: str,
) -> None:
    """Verdicts against direct evaluation, for every row and a sample in full.

    *segments* are ``(start, stop, filter_list)`` arrival-position ranges
    scored by one list.  Every row's spatial flag and temporal mask are
    compared; the rows at the sampled positions are compared down to the
    winning rule.
    """

    require(np.array_equal(codes.request_id, request_ids[order]),
            f"{what}: verdicts are not one per request in arrival order")
    recount = rows_values.temporal_bits(order)[order]
    mismatched = np.flatnonzero(codes.temporal != recount)
    require(mismatched.size == 0,
            f"{what}: {mismatched.size} temporal flags differ from the recount "
            f"(first at arrival position {mismatched[:1].tolist()})")
    for start, stop, filter_list in segments:
        rows = order[start:stop]
        flags = rows_values.spatial_flags(filter_list, knowledge, rows)
        mismatched = np.flatnonzero(flags != (codes.rule[start:stop] != NO_RULE))
        require(mismatched.size == 0,
                f"{what}: {mismatched.size} spatial flags differ from direct evaluation "
                f"(first at arrival position {(start + mismatched[:1]).tolist()})")
        precedence = rule_precedence(filter_list)
        for position in sample[(sample >= start) & (sample < stop)].tolist():
            expected = rows_values.expected_rule(
                precedence, filter_list, knowledge, int(order[position])
            )
            require(int(codes.rule[position]) == expected,
                    f"{what}: arrival position {position} scored rule {codes.rule[position]}, "
                    f"direct evaluation gives {expected}")


# -- refresh schedule --------------------------------------------------------------


def expected_swaps(batch_min: Sequence[float], batch_max: Sequence[float],
                   interval_s: float) -> List[int]:
    """Batch counts after which a day-driven refresh deploys.

    The clock starts at the first batch's earliest timestamp; a refresh is
    due once the latest timestamp seen reaches the due time, and the next
    one is due an interval after that latest timestamp.
    """

    swaps: List[int] = []
    due = None
    latest = None
    for index, (low, high) in enumerate(zip(batch_min, batch_max)):
        if due is None:
            due = low + interval_s
        latest = high if latest is None else max(latest, high)
        if latest >= due:
            swaps.append(index + 1)
            due = latest + interval_s
    return swaps
