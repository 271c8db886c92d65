// Fixture for the allow validator: //lint:allow annotations must name
// a known analyzer and carry a non-empty reason. A second "//" inside
// the annotation starts a trailing comment, which is where these
// expectations hang.
package allow

//lint:allow lockorder // want `carries no reason`
var missingReason = 1

//lint:allow nosuchanalyzer because reasons // want `unknown analyzer "nosuchanalyzer"`
var unknownName = 2

//lint:allow // want `names no analyzer`
var nameless = 3

//lint:allow pindiscipline a well-formed exemption with its justification recorded
var wellFormed = 4
