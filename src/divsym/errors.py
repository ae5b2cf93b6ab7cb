"""Exception types shared across the package."""


class DivsymError(Exception):
    pass


class SymbolParseError(DivsymError):
    """Malformed symbol-file text.  `lineno` is the 1-based line number of
    the bad record, or None when the file failed a check after parsing."""

    lineno = None


class SymbolFormatError(DivsymError):
    """Symbol-file value violates an invariant (emission refused)."""


class ModelError(DivsymError):
    """Invalid program model."""


class LayoutError(DivsymError):
    """Layout engine failure (e.g. pool pass did not converge)."""


class NoUnwindInfo(DivsymError):
    """Program counter not covered by any CFI region."""


class MemoryOutOfRange(DivsymError):
    """Dereference outside the captured stack snapshot."""


class MalformedExpression(DivsymError):
    """Postfix expression does not evaluate to exactly one value."""


class ReplicationInputError(DivsymError):
    """Opportunity log and default symbol file do not describe the same binary."""


class PatchCorruptError(DivsymError):
    """Patch does not apply cleanly to the approximation."""


class AuthenticationError(DivsymError):
    """Delta-data authentication tag missing or wrong."""


class DeltaFormatError(DivsymError):
    """Malformed delta-data container (magic/version/length)."""


class HarnessError(DivsymError):
    """Inconsistent crash-simulation request."""
