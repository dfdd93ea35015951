"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: `Tracer.install`
replaces each public fedbeam function in the namespace its callers look it
up in with a timing wrapper, and `Tracer.remove` puts the originals back.
Every span keeps its name, start, end, parent span and one optional tag
(scene count, batch size or sample identity). Spans stay in memory until
`write` dumps them at the end of the run.
"""

import json
import time

CLOCK = time.perf_counter


def _mode(args, kwargs):
    return kwargs.get("mode", args[4] if len(args) > 4 else "eval")


def _batch_len(args, kwargs):
    return len(args[3])


def patch_points(fb):
    """(owner, attribute, span name or namer, tagger) for every traced call.

    The owner is the module (or class) whose namespace the caller reads the
    function from, so the call sites inside fedbeam are caught unchanged.
    `fb` is the fedbeam package after `fedbeam.cli` has been imported.
    """
    cli, ds, fed, ev, nn = fb.cli, fb.dataset, fb.fedavg, fb.evaluation, fb.nn
    return [
        (cli, "generate_synthetic", "dataset.generate_synthetic", lambda a, k: a[1]),
        (cli, "save_dataset", "dataset.save_dataset", None),
        (cli, "load_dataset", "dataset.load_dataset", None),
        (ds, "synthesize_scene", "dataset.synthesize_scene", None),
        (ds, "beam_powers", "channel.beam_powers", None),
        (fed, "topk_accuracy", "channel.topk_accuracy", None),
        (fed, "throughput_ratio", "channel.throughput_ratio", None),
        (fed, "lidar_to_grid", "preprocess.lidar_to_grid", lambda a, k: id(a[0])),
        (fed, "preprocess_dataset", "fedavg.preprocess_dataset", None),
        (ev, "preprocess_dataset", "fedavg.preprocess_dataset", None),
        (fed, "predict_proba", "fedavg.round_eval", None),
        (ev, "predict_proba", "fedavg.predict_proba", None),
        (fed, "local_round", "fedavg.local_round", None),
        (fed, "aggregate", "fedavg.aggregate", None),
        (cli, "run_federated", "fedavg.run_federated", None),
        (nn.BatchNormState, "average", "nn.bn_average", None),
        (nn, "forward", lambda a, k: "nn.forward." + _mode(a, k), _batch_len),
        (nn, "loss_and_grad", "nn.loss_and_grad", _batch_len),
        (nn, "sgd_step", "nn.sgd_step", None),
        (nn, "adam_step", "nn.adam_step", None),
        (nn, "save_checkpoint", "nn.save_checkpoint", None),
        (nn, "load_checkpoint", "nn.load_checkpoint", None),
        (cli, "evaluate", "evaluation.evaluate", None),
        (cli, "train_centralized", "evaluation.train_centralized", None),
    ]


class Tracer:
    """In-memory spans: [name, start, end, parent index, tag, phase]."""

    def __init__(self, fb):
        self.spans = []
        self.stack = []
        self.phase = None
        self._points = patch_points(fb)
        self._saved = []

    def _wrap(self, fn, name, tag):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs), CLOCK(), 0.0,
                   stack[-1] if stack else -1, tag(args, kwargs) if tag else None, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = CLOCK()

        return traced

    def install(self):
        for owner, attr, name, tag in self._points:
            raw = vars(owner)[attr]
            wrapped = self._wrap(getattr(owner, attr), name, tag)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)

    def remove(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a root-level span of its own (a whole command)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def write(self, path, environment):
        names = ["name", "start", "end", "parent", "tag", "phase"]
        with open(path, "w") as f:
            json.dump({"environment": environment, "fields": names, "spans": self.spans}, f)


class SpanIndex:
    """Self times and per-name totals over a set of recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.root = [0] * len(spans)
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                self.child_time[parent] += end - start
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i

    def self_time(self, i):
        _, start, end, _, _, _ = self.spans[i]
        return end - start - self.child_time[i]

    def select(self, name, phase):
        return [i for i, s in enumerate(self.spans) if s[0] == name and s[5] == phase]

    def total(self, idx, self_only=False):
        if self_only:
            return sum(self.self_time(i) for i in idx)
        return sum(self.spans[i][2] - self.spans[i][1] for i in idx)

    def module_self_times(self, roots):
        """{module: self seconds} over the span trees under the given roots,
        and the largest gap between a root's duration and its trees' sum."""
        per_root = {r: {} for r in roots}
        for i, span in enumerate(self.spans):
            table = per_root.get(self.root[i])
            if table is not None:
                module = span[0].split(".", 1)[0]
                table[module] = table.get(module, 0.0) + self.self_time(i)
        totals, worst_gap = {}, 0.0
        for r, table in per_root.items():
            _, start, end, _, _, _ = self.spans[r]
            worst_gap = max(worst_gap, abs(sum(table.values()) - (end - start)))
            for module, t in table.items():
                totals[module] = totals.get(module, 0.0) + t
        return totals, worst_gap
