"""Prompt construction for LLM judges: templates, placeholders, truncation.

Templates are plain text with str.format placeholders. Required
placeholders by request kind:

  pointwise  {query} {doc}
  triplet    {query} {doc} {ref}
  duel       {query} {doc_i} {doc_j}
  setwise    {query} {docs}

For setwise requests, {docs} expands to one lettered "Passage X: ..." block
per group member, letters matching the request's labels. Document texts
longer than the configured cap are cut at the cap and a truncation marker
appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .base import JudgeRequest, TemplateError

TRUNCATION_MARKER = " [...]"

REQUIRED_PLACEHOLDERS = {
    "pointwise": ("{query}", "{doc}"),
    "triplet": ("{query}", "{doc}", "{ref}"),
    "duel": ("{query}", "{doc_i}", "{doc_j}"),
    "setwise": ("{query}", "{docs}"),
}

DEFAULT_TEMPLATES = {
    "pointwise": (
        "Passage: {doc}\n"
        "Query: {query}\n"
        "Does the passage answer the query? Answer yes or no.\n"
        "Answer:"
    ),
    "triplet": (
        "Query: {query}\n\n"
        "Passage A: {doc}\n\n"
        "Passage B: {ref}\n\n"
        "Which passage is more relevant to the query? Answer A or B.\n"
        "Answer:"
    ),
    "duel": (
        "Query: {query}\n\n"
        "Passage A: {doc_i}\n\n"
        "Passage B: {doc_j}\n\n"
        "Which passage is more relevant to the query? Answer A or B.\n"
        "Answer:"
    ),
    "setwise": (
        "Query: {query}\n\n"
        "{docs}\n\n"
        "Which passage is most relevant to the query? "
        "Answer with the passage letter.\n"
        "Answer:"
    ),
}

TEMPLATE_FILES = {kind: f"{kind}.txt" for kind in DEFAULT_TEMPLATES}


@dataclass(frozen=True)
class PromptTemplates:
    """One template string per request kind."""

    pointwise: str
    triplet: str
    duel: str
    setwise: str

    @classmethod
    def defaults(cls) -> "PromptTemplates":
        return cls(**DEFAULT_TEMPLATES)

    @classmethod
    def from_dir(cls, directory) -> "PromptTemplates":
        """Load ``<kind>.txt`` files; kinds without a file keep the default."""
        directory = Path(directory)
        values = dict(DEFAULT_TEMPLATES)
        for kind, filename in TEMPLATE_FILES.items():
            path = directory / filename
            if path.is_file():
                values[kind] = path.read_text(encoding="utf-8")
        return cls(**values)

    def for_kind(self, kind: str) -> str:
        try:
            return getattr(self, kind)
        except AttributeError:
            raise TemplateError(kind, "no template for this request kind") from None


def check_placeholders(templates: PromptTemplates) -> None:
    """Raise TemplateError naming the first required placeholder a template lacks."""
    for kind, required in REQUIRED_PLACEHOLDERS.items():
        template = templates.for_kind(kind)
        for placeholder in required:
            if placeholder not in template:
                raise TemplateError(placeholder, f"missing from the {kind} template")


def truncate_text(text: str, max_chars: int) -> str:
    if max_chars and len(text) > max_chars:
        return text[:max_chars] + TRUNCATION_MARKER
    return text


def _doc_fields(*names):
    """Fill one named placeholder per document slot, in slot order."""

    def fields(request: JudgeRequest, max_chars: int) -> dict[str, str]:
        return {
            name: truncate_text(doc.text, max_chars)
            for name, doc in zip(names, request.docs)
        }

    return fields


def _setwise_fields(request: JudgeRequest, max_chars: int) -> dict[str, str]:
    blocks = [
        f"Passage {label}: {truncate_text(doc.text, max_chars)}"
        for label, doc in zip(request.labels, request.docs)
    ]
    return {"docs": "\n\n".join(blocks)}


DOC_FIELDS = {
    "pointwise": _doc_fields("doc"),
    "triplet": _doc_fields("doc", "ref"),
    "duel": _doc_fields("doc_i", "doc_j"),
    "setwise": _setwise_fields,
}


def build_prompt(
    request: JudgeRequest,
    templates: PromptTemplates,
    max_doc_chars: int = 0,
) -> str:
    """Substitute the request into its kind's template."""
    template = templates.for_kind(request.kind)
    for placeholder in REQUIRED_PLACEHOLDERS[request.kind]:
        if placeholder not in template:
            raise TemplateError(placeholder, f"missing from the {request.kind} template")

    fields = DOC_FIELDS[request.kind](request, max_doc_chars)
    try:
        return template.format(query=request.query.text, **fields)
    except KeyError as exc:
        raise TemplateError("{" + str(exc.args[0]) + "}", "not a known placeholder") from None
    except (IndexError, ValueError) as exc:
        raise TemplateError(request.kind, f"malformed template: {exc}") from None
