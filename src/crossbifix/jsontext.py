"""The package's one JSON writer: an object laid out as ``json.dump(...,
indent=2)`` lays it out, written to a binary file without loading ``json``.

``gen``, ``baseline-gen`` and ``table`` write their JSON through it, and so
does a verification report (``codes.VerificationReport.to_json``).
"""


def write_object(fh, members) -> None:
    """Write a JSON object and a newline to the binary file ``fh`` from
    ``(key, value)`` members with plain ASCII keys. A value is the bytes of
    its JSON text, as it stands at an indent of two spaces, or for a list
    an iterator of pieces of its items' text, where each item is led by
    ``,\\n`` and a four-space indent. The pieces are written as they come,
    so no list is held whole.
    """
    lead = "{\n"
    for key, value in members:
        fh.write(f'{lead}  "{key}": '.encode())
        lead = ",\n"
        if isinstance(value, bytes):
            fh.write(value)
            continue
        first = next(value, None)
        if first is None:
            fh.write(b"[]")
        else:
            fh.write(b"[" + first[1:])  # the first item has no comma before it
            fh.writelines(value)
            fh.write(b"\n  ]")
    fh.write(b"\n}\n")
